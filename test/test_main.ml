let () =
  Alcotest.run "hextile"
    [
      ("util", Test_util.suite);
      ("poly", Test_poly.suite);
      ("ir", Test_ir.suite);
      ("deps", Test_deps.suite);
      ("tiling", Test_tiling.suite);
      ("frontend", Test_frontend.suite);
      ("gpusim", Test_gpusim.suite);
      ("schemes", Test_schemes.suite);
      ("tape", Test_tape.suite);
      ("check", Test_check.suite);
      ("par", Test_par.suite);
      ("par_stress", Test_par_stress.suite);
      ("codegen", Test_codegen.suite);
      ("experiments", Test_experiments.suite);
      ("analytic", Test_analytic.suite);
      ("blit", Test_blit.suite);
      ("overlay", Test_overlay.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
      ("timeline", Test_timeline.suite);
    ]
