let () =
  Alcotest.run "belr"
    (Test_lf.suites @ Test_lfr.suites @ Test_meta.suites @ Test_unify.suites
   @ Test_comp.suites @ Test_conventional.suites @ Test_parser.suites
   @ Test_props.suites @ Test_coverage.suites @ Test_values.suites
   @ Test_parity.suites @ Test_termination.suites @ Test_errors.suites
   @ Test_typed_equal.suites @ Test_diagnostics.suites @ Test_telemetry.suites
   @ Test_store.suites @ Test_analysis.suites @ Test_totality.suites
   @ Test_session.suites @ Test_serve.suites @ Test_metrics.suites
   @ Test_worlds.suites @ Test_modes.suites @ Test_whnf.suites
   @ Test_registry.suites @ Test_fuzz.suites)
