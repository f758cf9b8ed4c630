"""Twin-beam NOPO noise toolkit.

Analytic above-threshold quadrature spectra, seeded stochastic synthesis of
each measured channel from its detection-chain PSD (short-kernel shaping,
streamed in blocks), spectrum-analyzer emulation with RBW/VBW semantics,
electronic-noise correction, Duan entanglement certification, and nonlinear
least-squares spectrum fitting.

Each name is imported from its module (`from twinbeam.model import
NopoParams`), so `import twinbeam` alone loads no numpy.
"""

__version__ = "0.1.0"
