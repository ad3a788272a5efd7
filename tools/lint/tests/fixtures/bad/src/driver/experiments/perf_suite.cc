// Fixture: a timing metric in the file that held the perf_suite
// experiment, which no file exemption covers. Line numbers are
// asserted by test_fingerprint_safety.py.

void
report(Report &out)
{
    out.addMetric("serial.wall_s", 1.0);  // line 8: _s
}
