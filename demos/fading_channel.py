"""Watch one fading link evolve: time correlation, stationary power, and
how well the one-step prediction tracks the realized gain.

Run: python3 demos/fading_channel.py
"""

import numpy as np

from dsapf.channel import (ar_coefficients, init_channels, predict_channels,
                           step_channels)
from dsapf.system import (Domain, RngStream, SystemConfig, derive_substream,
                          validate)

cfg = validate(SystemConfig(n_users=1, n_bands=200, max_bands_per_user=1,
                            n_particles=2, n_slots=1, seed=7))
coeffs = ar_coefficients(cfg.doppler_coherence_product)
print(f"doppler-coherence product {cfg.doppler_coherence_product}"
      f" -> AR tap {coeffs.a1:.6f}, innovation scale {coeffs.xi:.6f}")

root = RngStream(cfg.seed)
tensor = init_channels(cfg, root)
steps = 4000
trace = np.empty((steps, cfg.n_bands), dtype=complex)
err = np.empty(steps)
for t in range(steps):
    trace[t] = tensor.current[0, 0]
    predicted = predict_channels(tensor, coeffs)
    step_channels(tensor, coeffs, derive_substream(root, (Domain.CHANNEL_STEP, t)))
    err[t] = np.mean(np.abs(tensor.current - predicted) ** 2)

x = trace.real
lag1 = np.corrcoef(x[:-1].ravel(), x[1:].ravel())[0, 1]
power = np.mean(np.abs(trace) ** 2)
print(f"lag-1 autocorrelation  {lag1:.4f}  (tap says {coeffs.a1:.4f})")
print(f"mean squared gain      {power:.4f}  (stationary value 1.0 on the "
      "direct link before geometry scaling)")
print(f"prediction error power {err.mean():.4f}  (innovation floor "
      f"{coeffs.xi ** 2:.4f} x mean gain)")
print("halving the doppler product tightens the prediction:")
for product in (0.05, 0.025, 0.0):
    c = ar_coefficients(product)
    print(f"  fd*Tb={product:<6} a1={c.a1:.6f} xi^2={c.xi ** 2:.6f}")
