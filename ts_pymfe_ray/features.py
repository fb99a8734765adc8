"""Import hub: importing this module populates the feature registry.

Workers importing any stage get the full static plan — the engine's
equivalent of the reference's reflection over VALID_MFECLASSES
(/root/reference/tspymfe/_internal.py:134-145).
"""

import ts_pymfe_ray.functions.kernels_general  # noqa: F401
import ts_pymfe_ray.functions.kernels_global  # noqa: F401
import ts_pymfe_ray.functions.kernels_autocorr  # noqa: F401
import ts_pymfe_ray.functions.kernels_local  # noqa: F401
import ts_pymfe_ray.functions.kernels_freq  # noqa: F401
import ts_pymfe_ray.functions.kernels_info  # noqa: F401
import ts_pymfe_ray.functions.kernels_stat_tests  # noqa: F401
import ts_pymfe_ray.functions.kernels_model  # noqa: F401
import ts_pymfe_ray.functions.kernels_landmark  # noqa: F401
import ts_pymfe_ray.functions.kernels_randomize  # noqa: F401

from ts_pymfe_ray.registry import REGISTRY, kernels_of  # noqa: F401
