"""The public names of ``locdom``, pinned so that one is added or dropped
only on purpose."""

from types import ModuleType

import locdom

PUBLIC_NAMES = (
    "ADJACENT_TWINS", "BIJECTIVE", "CONSTANT", "CaseRow", "FamilySpec", "Functigraph",
    "FunctigraphBounds", "FunctionClass", "FunctionMap", "Graph", "MAX_ORDER",
    "MID_NO_MATCHING", "MID_WITH_MATCHING", "NON_ADJACENT_TWINS", "ORACLE_MAX_ORDER",
    "Report", "SATURATED", "SINGLETON", "SearchStats", "Signature", "SolveResult",
    "TWIN_PAIR", "TwinClass", "TwinPartition", "VerifyConfig", "VertexSet", "all_graphs",
    "all_maps", "build_functigraph", "classify", "complete_case_id", "complete_graph",
    "constant_map", "cycle_graph", "functigraph_from_json_dict", "graph_from_edge_text",
    "graph_from_json_dict", "graph_to_json_dict", "h_graph", "hi_case_id", "hi_target_kind",
    "identity_map", "info_lower_bound", "is_connected", "is_locating_dominating",
    "lambda_exact", "lambda_oracle", "make_family", "nonisomorphic_connected_graphs",
    "parse_map", "path_graph", "pendant_gap_graph", "permutation_map", "permute_graph",
    "predicted_bounds_functigraph", "predicted_lambda_complete", "predicted_lambda_hi",
    "preimage_signature", "random_connected_graph", "random_graph",
    "random_map_with_signature", "signature_map", "signatures", "star_graph",
    "twin_lower_bound", "twin_partition", "verify_suite",
)


def test_public_names_are_pinned():
    public = sorted(
        name
        for name, value in vars(locdom).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert tuple(public) == PUBLIC_NAMES
