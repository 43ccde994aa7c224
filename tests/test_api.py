import monolab

PUBLIC_API = [
    "BracketError", "CriticalExponent", "Cut", "EnsembleSpec", "HierarchyReport", "Measure",
    "MeasureKind", "MeasureUndefinedError", "MonogamyReport", "MultipartiteState",
    "StrongMonogamyReport", "VerificationSummary", "bisect_score_crossing",
    "check_decreasing_concave_family", "check_scalar_lemmas", "classical_corr_state",
    "classical_correlation", "concurrence_pure_cut", "concurrence_two_qubit",
    "counterexample_search", "critical_exponent", "discord", "eof_from_concurrence",
    "eof_pure_cut", "eof_two_qubit", "evaluate", "ghz", "haar_pure", "hierarchy_chain",
    "load_state", "log_negativity", "measures", "monogamy", "monogamy_score", "named_state",
    "negativity", "power_sweep", "probe_high_power_mixed", "random_mixed", "sample_states",
    "save_state", "share_sum", "state_from_json", "state_to_json", "states",
    "strong_monogamy_report", "tangle_rank2", "tensor", "verify", "verify_functional_lift",
    "verify_hierarchy_chain", "verify_lowering", "verify_mixed_lifting", "verify_raising",
    "verify_strong_chain", "w", "white_noise_mix",
]


def test_public_api_is_pinned():
    """Deleting or adding a public name is a deliberate change to this list."""
    assert sorted(monolab.__all__) == PUBLIC_API
