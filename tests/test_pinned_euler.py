"""Pinned ``perisym euler`` stdout at arities 5 and 6, where most weights
of the orbit sums repeat an entry.  The digests were recorded before the
orbit writer stopped expanding repeated permutations; the outputs must
stay bit-identical."""

from test_pinned_outputs import cli_stdout_digest


def test_cli_euler_stdout_rank_five():
    assert cli_stdout_digest(
        "euler", "--n", "5", "--gamma", "0,0,-1,-1,-1", "--lambda", "a,a,0,0,0", "--a", "2",
    ) == "7dee3cb95f0bd576944d92981d4c4719e765727228ee50c081da612480a84929"


def test_cli_euler_stdout_rank_six():
    assert cli_stdout_digest(
        "euler", "--n", "6", "--gamma", "0,0,0,0,-1,-1", "--lambda", "a,a,a,a,0,0", "--a", "2",
    ) == "c698dbcc1cbc7296e9abd89a60eeff0e81940233d02318bcb11556b7254f1dbe"
