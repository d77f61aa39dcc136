import conebarrier

# The public API as the README documents it; everything else is imported
# from its own module.
DOCUMENTED = {
    "solve",
    "SolverParams",
    "SolveResult",
    "SolveStatus",
    "ConicProblem",
    "AffineData",
    "Cone",
    "ConeBlock",
    "orthant",
    "second_order",
    "product",
    "builtin",
    "load_problem",
    "save_problem",
    "perturb",
}


def test_all_is_the_documented_api():
    assert sorted(conebarrier.__all__) == sorted(DOCUMENTED)
    assert len(conebarrier.__all__) == len(DOCUMENTED)


def test_every_public_name_resolves():
    for name in conebarrier.__all__:
        assert getattr(conebarrier, name) is not None
