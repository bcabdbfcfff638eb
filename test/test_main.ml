(* Aggregated alcotest runner for the FreeTensor reproduction. *)

let () =
  Alcotest.run "freetensor"
    [ ("ir", Test_ir.suite);
      ("presburger", Test_presburger.suite);
      ("dependence", Test_dep.suite);
      ("schedule", Test_sched.suite);
      ("schedule-errors", Test_sched.error_suite);
      ("frontend", Test_frontend.suite);
      ("autodiff", Test_ad.suite);
      ("workloads", Test_workloads.suite);
      ("backend", Test_backend.suite);
      ("passes", Test_passes.suite);
      ("random", Test_random.suite);
      ("parallel", Test_par.suite);
      ("race", Test_race.suite);
      ("profile", Test_profile.suite);
      ("guard", Test_guard.suite);
      ("libop", Test_libop.suite);
      ("supervisor", Test_supervisor.suite);
      ("serve", Test_serve.suite);
      ("litmus", Test_litmus.suite);
      ("lower", Test_lower.suite);
      ("exec", Test_exec.suite) ]
