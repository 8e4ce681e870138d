"""Dictionary learning via iterative thresholding and K-residual means,
with candidate-based atom replacement and adaptive selection of the
sparsity level and dictionary size."""

from .adaptive import (AdaptiveConfig, add_atoms, prune_coherent,
                       prune_unused, run_adaptive, update_sparsity)
from .approx import ApproxReport, approximation_power, omp
from .candidates import (CandidateSet, ReplacementPolicy, draw_candidates,
                         replace_coherent, replace_unused)
from .container import (read_dictionary, read_matrix, write_dictionary,
                        write_matrix)
from .engine import (EngineConfig, FixedCorpus, FreshBatches, IterationOutput,
                     Trajectory, run_iteration, run_learning, threshold_support)
from .experiments import ExperimentSpec, SpecError, run_experiment
from .images import (PatchConfig, add_image_noise, extract_patches,
                     load_image_gray, psnr, save_image_pgm)
from .linalg import (DiagnosticsReport, Dictionary, Support, asym_distance,
                     coherence, dictionary_diagnostics, mean_atom_distance,
                     operator_norm_sq, project_onto_span, recovery_rate)
from .signals import (BalancedCoefficients, CoefficientMixture,
                      GeometricCoefficients, SignalBatch, SignalModel,
                      TwoSparseCoefficients, generate_batch, make_dirac_hadamard,
                      make_random_sphere, make_spurious_estimate,
                      noise_std_for_snr, perturbed_dictionary, rng_from_seed)

__version__ = "0.1.0"
