"""Exact-diagonalization laboratory for entropy scaling in spin-1/2 chains."""
from .basis import (
    SpinBasis,
    SymmetryBlock,
    enumerate_sector,
    indices_of,
    sector_of,
    symmetry_blocks,
    symmetry_group,
)
from .config import EXPERIMENTS, RunConfig, parse_config, read_config_file
from .entropy import (
    QGibbsResult,
    SubadditivityReport,
    check_subadditivity,
    q_gibbs,
    shannon,
    von_neumann,
)
from .errors import (
    ConfigError,
    EntroscopeError,
    NumericsError,
    SpectrumChecksumError,
    SpectrumFormatError,
    StorageError,
)
from .experiments import (
    DegeneracyCensus,
    FitResult,
    ShellTable,
    VolumeLawTable,
    degeneracy_census,
    fit_entropy_vs_lndos,
    mean_spacing_ratio,
    mid_shell,
    run_shell_average,
    run_volume_law,
    shell_rdm_entropies,
    shell_statistics,
    subsystem_entropies,
)
from .hamiltonian import (
    ModelParams,
    SymmetricOperator,
    build_hamiltonian,
)
from .properties import PropertyResult, format_tap, run_property_suite
from .spectral import (
    DosTable,
    EigenBlock,
    Spectrum,
    diagonalize,
    load_spectrum,
    multiplet_flags,
    multiplet_sizes,
    partition_shells,
    save_spectrum,
    spectrum_cache_path,
)
from .states import (
    BipartitionSpec,
    DensityMatrix,
    StateVector,
    averaged_rdm,
    measure,
    mix,
    partial_trace,
    partial_trace_bath,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
