"""spectralab: spectra of Birman-Schwinger operators of singular measures.

Measures are weighted atom clouds; operators are assembled by a torus-Fourier
compression or a Nystrom log-kernel route; spectra are summarized by Weyl
plateaus, Dixmier partial sums, and two-sided order bounds, calibrated by
Orlicz norms of the density.

Imports are lazy so the CLI can cap BLAS thread pools before numpy loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # measures
    "PointCloudMeasure": "measures",
    "SignedDensity": "measures",
    "Component": "measures",
    "Similitude": "measures",
    "SimilitudeSystem": "measures",
    "LipschitzPatch": "measures",
    "AhlforsBand": "measures",
    "ifs_dimension": "measures",
    "ifs_self_similar_measure": "measures",
    "surface_measure": "measures",
    "builtin_measure": "measures",
    "union_measure": "measures",
    "ball_mass": "measures",
    "ahlfors_constants": "measures",
    "density_bounds": "measures",
    "cantor_system": "measures",
    "sierpinski_system": "measures",
    "save_measure_text": "measures",
    "load_measure_text": "measures",
    # orlicz
    "luxemburg_norm": "orlicz",
    "averaged_norm": "orlicz",
    "OrliczNormResult": "orlicz",
    # coeffs
    "sphere_area": "coeffs",
    "weyl_coefficient": "coeffs",
    "predicted_trace": "coeffs",
    "TracePrediction": "coeffs",
    # operators
    "AssembledOperator": "operators",
    "assemble_fourier_bs": "operators",
    "assemble_log_kernel": "operators",
    "assemble_log_potential": "operators",
    "assemble_steklov_circle": "operators",
    "log_kernel_coefficient": "operators",
    # spectral
    "EigenReport": "spectral",
    "WeylFit": "spectral",
    "OrderBounds": "spectral",
    "DixmierEstimate": "spectral",
    "eigen_spectrum": "spectral",
    "counting": "spectral",
    "weyl_plateau": "spectral",
    "dixmier_sequence": "spectral",
    "order_bounds": "spectral",
    "spectra_match": "spectral",
    "write_spectrum_csv": "spectral",
    "read_spectrum_csv": "spectral",
}


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
