"""Bench: fleet provisioning under SLOs."""


def test_ext_provisioning(run_report):
    report = run_report("ext_provisioning")
    def option(model, platform):
        return next(row for row in report.rows
                    if row[0] == model and row[2] == platform)
    # Small in-memory model: both fleets are feasible, each with an
    # accepted exact confirmation (a row carries its confirmed
    # attainment only then), and they cost the same to within 2%. The
    # old "GPU strictly cheaper" claim came from 20% capacity headroom
    # on the SPR side; exact-confirmed sizing needs 9x SPR, because 8x
    # SPR measures 0.848 attainment.
    small_gpu = option("LLaMA2-7B", "H100-80GB")
    small_cpu = option("LLaMA2-7B", "SPR-Max-9468")
    for row in (small_gpu, small_cpu):
        assert row[4] != "-" and row[6] != "-"
    assert abs(small_gpu[5] - small_cpu[5]) <= \
        0.02 * min(small_gpu[5], small_cpu[5])
    # Over-capacity model: only the CPU option is feasible at this SLO.
    big_cpu = option("OPT-66B", "SPR-Max-9468")
    big_gpu = option("OPT-66B", "H100-80GB")
    assert big_cpu[4] != "-"
    assert big_gpu[4] == "-"
