"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same metrics; selftest.py
checks that the two agree and that every run reports each name with its unit.
"""

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_cal": ("cal", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "rel_err": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-call span medians: metric name -> span name recorded by the tracer.
SPANS = {
    "cli.simulate_s": "cli.simulate",
    "cli.fit_s": "cli.fit",
    "io.write_trace_s": "io.write_trace",
    "io.read_trace_s": "io.read_trace",
    "io.write_report_s": "io.write_report",
    "dshi.simulate_time_domain_s": "dshi.simulate_time_domain",
    "dshi.voigt_beat_note_s": "dshi.voigt_beat_note",
    "dshi.analytic_psd_s": "dshi.analytic_psd",
    "lineshape.width_at_level_s": "lineshape.width_at_level",
    "lineshape.voigt_width_numeric_s": "lineshape.voigt_width_numeric",
    "estimate.estimate_voigt_s": "estimate.estimate_voigt",
    "estimate.estimate_envelope_contrast_s": "estimate.estimate_envelope_contrast",
    "ionsim.simulate_carrier_spectrum_s": "ionsim.simulate_carrier_spectrum",
    "ionsim.simulate_rabi_s": "ionsim.simulate_rabi",
    "ionsim.fit_lorentzian_peak_s": "ionsim.fit_lorentzian_peak",
    "ionsim.fit_damped_sine_s": "ionsim.fit_damped_sine",
}

# Per-op counter medians: metric name -> counter name.
COUNTS = {
    "io.trace_bytes": "io.trace_bytes",
    "dshi.samples": "dshi.samples",
    "estimate.voigt_iterations": "estimate.voigt_iterations",
    "estimate.envelope_iterations": "estimate.envelope_iterations",
    "estimate.lm_iterations": "estimate.lm_iterations",
    "ionsim.shot_steps": "ionsim.shot_steps",
    "ionsim.rabi_rel_err": "ionsim.rabi_rel_err",
}

# Work rates: metric name -> (counter, spans); the per-op ratio of the
# counter to the summed span time is reported.
RATES = {
    "dshi.samples_per_s": ("dshi.samples", ("dshi.simulate_time_domain",)),
    "ionsim.shot_steps_per_s": ("ionsim.shot_steps",
                                ("ionsim.simulate_carrier_spectrum",
                                 "ionsim.simulate_rabi")),
}

PER_LAYER = {
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.simulate_s": ("s", "lower"),
    "cli.fit_s": ("s", "lower"),
    "io.write_trace_s": ("s", "lower"),
    "io.read_trace_s": ("s", "lower"),
    "io.write_report_s": ("s", "lower"),
    "io.trace_bytes": ("bytes", "lower"),
    "dshi.simulate_time_domain_s": ("s", "lower"),
    "dshi.samples": ("count", "higher"),
    "dshi.samples_per_s": ("1/s", "higher"),
    "dshi.voigt_beat_note_s": ("s", "lower"),
    "dshi.analytic_psd_s": ("s", "lower"),
    "lineshape.width_at_level_s": ("s", "lower"),
    "lineshape.voigt_width_numeric_s": ("s", "lower"),
    "estimate.estimate_voigt_s": ("s", "lower"),
    "estimate.voigt_iterations": ("count", "lower"),
    "estimate.estimate_envelope_contrast_s": ("s", "lower"),
    "estimate.envelope_iterations": ("count", "lower"),
    "estimate.flagged_ratio": ("ratio", "lower"),
    "estimate.refusals": ("count", "lower"),
    "ionsim.simulate_carrier_spectrum_s": ("s", "lower"),
    "ionsim.simulate_rabi_s": ("s", "lower"),
    "ionsim.shot_steps": ("count", "higher"),
    "ionsim.shot_steps_per_s": ("1/s", "higher"),
    "ionsim.fit_lorentzian_peak_s": ("s", "lower"),
    "ionsim.fit_damped_sine_s": ("s", "lower"),
    "estimate.lm_iterations": ("count", "lower"),
    "ionsim.rabi_rel_err": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
    # The closed loop as a whole, over the untraced ops of a traced run.
    "run.op_p50_s": ("s", "lower"),
    "run.op_tail_s": ("s", "lower"),
}

WORKLOADS = ("cli-pipeline", "estimate-batch", "mc-oracle", "ion-scan")
