"""Exact L(2,1)-labeling spans of power graphs of finite groups."""

from .errors import (
    CapacityExceeded,
    GroupSpecError,
    InternalError,
    VerificationError,
)
from .groups import (
    FiniteGroup,
    GroupDescriptor,
    MaximalCyclicDecomposition,
    cyclic_subgroup,
    direct_product,
    element_order,
    from_permutations,
    is_P_group,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    maximal_cyclic_subgroups,
    permutation_from_cycles,
)
from .invariants import (
    PathCover,
    WitnessedValue,
    cut_vertex_component_profile,
    find_complement_p4,
    hamilton_path,
    path_cover_number,
)
from .labeling import (
    Bound,
    Labeling,
    LambdaReport,
    LowerCertificate,
    PartitionCertificate,
    bound_ledger,
    check_certificate,
    construct_dihedral_labeling,
    construct_partition_labeling,
    construct_quaternion_labeling,
    construct_zpqn_labeling,
    lambda_exact,
    lambda_via_path_cover,
    lower_certificate,
    validate_l21,
)
from .oracle import (
    Prediction,
    check_lower_equality,
    check_upper_classification,
    classify_alpha2,
    euler_phi,
    predict_lambda,
)
from .powergraph import (
    Graph,
    build_power_graph,
    complement,
    connected_components,
    diameter_at_most_two,
)

__version__ = "0.6.0"
