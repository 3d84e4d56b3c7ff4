"""Deterministic SGD on a fixed-point grid with exact permutation compression.

The package runs epoch SGD where every arithmetic step is reproducible bit
for bit, encodes each epoch's shuffle against the evolving model as side
information, decodes it back exactly (including a mode where intermediate
models are recovered by reverse search from the final weights alone), and
accounts for every bit against the entropy bounds that make the compression
argument work.
"""

from .codec import (
    BitStream,
    CodecError,
    binomial,
    ceil_log2,
    decode_set_conditional,
    encode_set_conditional,
    perm_rank,
    perm_unrank,
    subset_rank,
    subset_unrank,
    theoretical_set_bound,
)
from .epoch_codec import (
    ACCOUNTING,
    BACKWARD,
    SPLIT,
    STRICT,
    AccountRow,
    CaseSelector,
    EpochCode,
    SideInfo,
    check_eps_beta_ceiling,
    decode_epoch,
    encode_epoch,
    epoch_accounting,
    model_description_bits,
    read_epoch_file,
    select_case,
    write_epoch_file,
)
from .harness import (
    CompressionReport,
    ExperimentSpec,
    HoeffdingCheck,
    load_manifest,
    run_experiment,
    run_inequality_suite,
    verify_hoeffding,
)
from .model import (
    Dataset,
    Element,
    GeneratorSpec,
    Model,
    generate_dataset,
    loss_gradient,
    zero_model,
)
from .numerics import (
    DomainError,
    FixedVector,
    GridSpec,
    PreconditionError,
    SaturationError,
    binary_entropy,
    kl_bernoulli,
)
from .sgd_engine import (
    EpochTrace,
    MultiplePreimage,
    PreimageNotFound,
    RunConfig,
    TrainingRun,
    draw_epoch_permutation,
    forward_step,
    reverse_epoch,
    reverse_step,
    run_epoch,
    run_training,
)

__version__ = "0.1.0"
