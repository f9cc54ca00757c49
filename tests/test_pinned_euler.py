"""Pinned ``perisym euler`` stdout at arities 5 and 6, where most weights
of the orbit sums repeat an entry.  The digests were recorded before the
orbit writer stopped expanding repeated permutations; the outputs must
stay bit-identical.  The later pins cover both routes of
``euler._expansion``: the dual Cauchy factorization for weakly
decreasing gamma with all entries <= 0, and the numerator expansion for
any other gamma."""

from test_pinned_outputs import cli_stdout_digest


def test_cli_euler_stdout_rank_five():
    assert cli_stdout_digest(
        "euler", "--n", "5", "--gamma", "0,0,-1,-1,-1", "--lambda", "a,a,0,0,0", "--a", "2",
    ) == "7dee3cb95f0bd576944d92981d4c4719e765727228ee50c081da612480a84929"


def test_cli_euler_stdout_rank_six():
    assert cli_stdout_digest(
        "euler", "--n", "6", "--gamma", "0,0,0,0,-1,-1", "--lambda", "a,a,a,a,0,0", "--a", "2",
    ) == "c698dbcc1cbc7296e9abd89a60eeff0e81940233d02318bcb11556b7254f1dbe"


# Recorded from the numerator route, before the factorized route existed.

def test_cli_euler_stdout_distinct_tail():
    # gamma_1 at rank 5 with the non-constant tail weight (1, 0, -1).
    assert cli_stdout_digest(
        "euler", "--n", "5", "--gamma", "0,0,-1,-2,-3", "--lambda", "a,a,1,0,-1", "--a", "2",
    ) == "c3ffb821e7adf1577c498ecbbac76acd0aa36ea128d969f90c479e1be76e3f27"


def test_cli_euler_stdout_no_zero_block():
    # No zero in gamma, and a weight that is not dominant.
    assert cli_stdout_digest(
        "euler", "--n", "4", "--gamma", "-1,-2,-3,-4", "--lambda", "0,2,0,-1",
    ) == "2d6a43b9de142f4dd746a6d72364de5b493b8c7c1f615715e1d9a05e814c4502"


def test_cli_euler_stdout_all_zero_gamma():
    assert cli_stdout_digest(
        "euler", "--n", "4", "--gamma", "0,0,0,0", "--lambda", "a,a,a,a", "--a", "3",
    ) == "887f3375d844cb22321c2393a0aa3428ff99e77ed85e7ca59d7ef8f896b5fb84"


def test_cli_euler_stdout_positive_gamma_entry():
    # A positive entry keeps the numerator route.
    assert cli_stdout_digest(
        "euler", "--n", "4", "--gamma", "1,0,-1,-2", "--lambda", "1,0,1,-1",
    ) == "01fc4960ae18be5d27d28ae9d187584f13fe2cae561f56120b4c3e967e6f08c9"
