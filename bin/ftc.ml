(* ftc — the FreeTensor compiler driver.

   Subcommands:
     ftc show <workload>                print the free-form program
     ftc schedule <workload> [-d dev]   print the auto-scheduled program
     ftc codegen <workload> [-d dev]    print generated OpenMP C / CUDA
     ftc grad <workload> [--all]        print forward+backward ASTs
     ftc estimate <workload> [-d dev]   abstract-machine cost estimate
     ftc run <workload> [-x exec]       execute and check vs reference
                                        (interp | compiled | parallel)
     ftc profile <workload> [-d dev]    profile the served (lowered) tree
                                        with observed counters, against
                                        the cost model
     ftc check <workload> [-d dev]      static race report for every
                                        parallel-annotated loop; exits 1
                                        if any loop is Racy
     ftc guard <workload>               static bounds-prover report, then
                                        guarded execution under both
                                        executors; exits 1 on any fault
     ftc lower <workload>               run the IR lowering pipeline
             [--dump-after PASS]        standalone, dump IR between
             [--dump-all] [--check]     stages, count blockized nests;
                                        --check verifies the lowered
                                        program bitwise under the interp
     ftc soak <workload> [--seed N]     drive the workload through the
             [--faults K] [--requests R]  execution supervisor under
                                        randomized fault plans; print an
                                        availability/degradation report
     ftc serve <workload> [--seed N]    seeded open-loop load through the
             [--requests R] [--rate F]  multi-tenant serving layer
             [--batch B] [--faults K]   (artifact cache + batching);
             [--guard] [--budget BYTES] report throughput, p50/p99,
                                        cache-hit-rate, batch histogram;
                                        gates on availability, hit-rate,
                                        recompiles and bitwise identity
     ftc litmus [--depth D] [--stmts S] exhaustively enumerate small
             [--sched-len K] [--budget N] programs x schedule sequences,
                                        dedup by canonical hash, and
                                        differentially verify every pair;
                                        exits 1 on any mismatch or
                                        soundness violation

   Exit codes are uniform across subcommands: 0 = success, 1 = fault
   (structured diagnostic on stderr), 2 = usage error. *)

open Freetensor
open Cmdliner

(* Unified fault handling: every subcommand body runs under [guarded],
   which routes any fault — structured diagnostics and raw executor
   errors alike — to stderr and exits 1.  Usage errors exit 2 (set via
   [~term_err] below); success is 0. *)
exception Cli_fault of string

let faultf fmt = Printf.ksprintf (fun s -> raise (Cli_fault s)) fmt

let guarded (f : unit -> unit) : unit =
  let fail msg =
    Printf.eprintf "ftc: fault: %s\n" msg;
    exit 1
  in
  try f () with
  | Cli_fault m -> fail m
  | Diag.Diag_error d -> fail (Diag.to_string d)
  | Interp.Interp_error m | Compile_exec.Exec_error m -> fail m
  | Interp.Race_detected m -> fail m
  | Tensor.Fault flt -> fail (Tensor.fault_to_string flt)
module Sub = Ft_workloads.Subdivnet
module Lf = Ft_workloads.Longformer
module Sr = Ft_workloads.Softras
module Gat = Ft_workloads.Gat
module Tvm = Ft_workloads.Tvmlike

type wl =
  | W_subdivnet
  | W_longformer
  | W_softras
  | W_gat
  | W_tvmlike

let wl_conv =
  Arg.enum
    [ ("subdivnet", W_subdivnet); ("longformer", W_longformer);
      ("softras", W_softras); ("gat", W_gat); ("tvmlike", W_tvmlike) ]

let func_of = function
  | W_subdivnet -> Sub.ft_func Sub.default
  | W_longformer -> Lf.ft_func Lf.default
  | W_softras -> Sr.ft_func Sr.default
  | W_gat ->
    let _, _, n_edges = Gat.gen_graph Gat.default in
    Gat.ft_func Gat.default ~n_edges
  | W_tvmlike -> Tvm.mm_func Tvm.mm_default

let device_conv = Arg.enum [ ("cpu", Types.Cpu); ("gpu", Types.Gpu) ]

let wl_arg =
  Arg.(
    required
    & pos 0 (some wl_conv) None
    & info [] ~docv:"WORKLOAD"
        ~doc:
          "One of subdivnet, longformer, softras, gat, tvmlike (the \
           runnable dense-matmul operator).")

let device_arg =
  Arg.(
    value
    & opt device_conv Types.Cpu
    & info [ "d"; "device" ] ~docv:"DEVICE" ~doc:"Target device (cpu|gpu).")

let show_cmd =
  let run w = print_string (Printer.func_to_string (func_of w)) in
  Cmd.v (Cmd.info "show" ~doc:"Print the free-form program")
    Term.(const run $ wl_arg)

let schedule_cmd =
  let run w device =
    let fn = Auto.run ~device (func_of w) in
    print_string (Printer.func_to_string fn)
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Print the auto-scheduled program")
    Term.(const run $ wl_arg $ device_arg)

let codegen_cmd =
  let run w device =
    let c = Compile.build ~device (func_of w) in
    print_string c.Compile.c_source
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Print generated OpenMP C or CUDA source")
    Term.(const run $ wl_arg $ device_arg)

let grad_cmd =
  let run w materialize_all =
    let mode =
      if materialize_all then Grad.Materialize_all else Grad.Selective
    in
    let g = Grad.grad ~mode (func_of w) in
    print_endline "==== instrumented forward ====";
    print_string (Printer.func_to_string g.Grad.forward);
    print_endline "\n==== backward ====";
    print_string (Printer.func_to_string g.Grad.backward);
    Printf.printf "\n%d tape(s); %d state(s) recomputed\n"
      (List.length g.Grad.tapes)
      (List.length g.Grad.recomputed)
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Materialize every intermediate (the FT(-) of Fig. 18).")
  in
  Cmd.v
    (Cmd.info "grad" ~doc:"Differentiate and print the gradient program")
    Term.(const run $ wl_arg $ all_arg)

let estimate_cmd =
  let run w device =
    let c = Compile.build ~device (func_of w) in
    let m = Compile.estimate c in
    Printf.printf "%s\n" (Machine.metrics_to_string m)
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Cost estimate on the abstract machine")
    Term.(const run $ wl_arg $ device_arg)

let exec_conv =
  Arg.enum
    [ ("interp", `Interp); ("compiled", `Compiled); ("parallel", `Parallel) ]

let exec_arg =
  Arg.(
    value
    & opt exec_conv `Interp
    & info [ "x"; "executor" ] ~docv:"EXECUTOR"
        ~doc:
          "Execution backend: $(b,interp) (reference interpreter), \
           $(b,compiled) (closure-compiling executor), or $(b,parallel) \
           (CPU-auto-scheduled program on the compiled executor with \
           OpenMP-annotated loops running on the domain pool; pool size \
           honors FT_NUM_DOMAINS).")

(* One concrete instance of a workload: the function, its argument
   binding (with freshly allocated outputs) and a closure computing
   max |FT - reference| over the outputs after a run. *)
let workload_case w :
    string * Stmt.func * (string * Tensor.t) list * (unit -> float) =
  match w with
  | W_subdivnet ->
    let c = Sub.default in
    let e, adj = Sub.gen_inputs c in
    let y = Tensor.zeros Types.F32 [| c.Sub.n_faces; c.Sub.in_feats |] in
    ( "subdivnet", Sub.ft_func c,
      [ ("e", e); ("adj", adj); ("y", y) ],
      fun () -> Tensor.max_abs_diff y (Sub.reference e adj) )
  | W_longformer ->
    let c = Lf.default in
    let q, k, v = Lf.gen_inputs c in
    let y = Tensor.zeros Types.F32 [| c.Lf.seq_len; c.Lf.feat_len |] in
    ( "longformer", Lf.ft_func c,
      [ ("Q", q); ("K", k); ("V", v); ("Y", y) ],
      fun () -> Tensor.max_abs_diff y (Lf.reference q k v ~w:c.Lf.w) )
  | W_softras ->
    let c = Sr.default in
    let cx, cy, r = Sr.gen_inputs c in
    let img = Tensor.zeros Types.F32 [| c.Sr.img; c.Sr.img |] in
    ( "softras", Sr.ft_func c,
      [ ("cx", cx); ("cy", cy); ("r", r); ("img", img) ],
      fun () ->
        Tensor.max_abs_diff img
          (Sr.reference cx cy r ~img:c.Sr.img ~sigma:c.Sr.sigma) )
  | W_gat ->
    let c = Gat.default in
    let rowptr, colidx, n_edges = Gat.gen_graph c in
    let x, wt, a1, a2 = Gat.gen_inputs c in
    let out = Tensor.zeros Types.F32 [| c.Gat.n_nodes; c.Gat.out_feats |] in
    ( "gat", Gat.ft_func c ~n_edges,
      [ ("x", x); ("w", wt); ("a1", a1); ("a2", a2); ("rowptr", rowptr);
        ("colidx", colidx); ("out", out) ],
      fun () -> Tensor.max_abs_diff out (Gat.reference x wt a1 a2 rowptr colidx)
    )
  | W_tvmlike ->
    let c = Tvm.mm_default in
    let a, b = Tvm.mm_inputs c in
    let out = Tensor.zeros Types.F32 [| c.Tvm.mm_m; c.Tvm.mm_n |] in
    ( "tvmlike", Tvm.mm_func c,
      [ ("A", a); ("B", b); ("C", out) ],
      fun () -> Tensor.max_abs_diff out (Tvm.mm_reference a b) )

let run_cmd =
  let run w exec =
    let name, fn, args, diff = workload_case w in
    (match exec with
     | `Interp -> Interp.run_func fn args
     | `Compiled -> Compile_exec.run_func fn args
     | `Parallel ->
       Compile_exec.run_func ~parallel:true (Auto.run ~device:Types.Cpu fn)
         args);
    Printf.printf "%s: max |FT - reference| = %g\n" name (diff ())
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute the workload and compare to reference")
    Term.(const run $ wl_arg $ exec_arg)

let profile_cmd =
  let run w device =
    guarded (fun () ->
        let e_wl =
          match w with
          | W_subdivnet -> Ft_workloads.Experiments.Subdiv
          | W_longformer -> Ft_workloads.Experiments.Longf
          | W_softras -> Ft_workloads.Experiments.Softr
          | W_gat -> Ft_workloads.Experiments.Gatw
          | W_tvmlike ->
            faultf
              "profile: tvmlike is a wall-clock workload with no paper \
               experiment entry; use `ftc run tvmlike` or `ftc lower \
               tvmlike`"
        in
        print_string
          (Ft_workloads.Tables.profile_workload ~device
             Ft_workloads.Experiments.small_scale e_wl))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile the tree the compiled executor serves (lowered, with \
          microkernel nests) with observed per-kernel counters, against \
          the analytic cost model")
    Term.(const run $ wl_arg $ device_arg)

let check_cmd =
  let run w device =
    guarded (fun () ->
        let fn = Auto.run ~device (func_of w) in
        print_string (Race.func_report fn);
        if Race.has_racy (Race.check_func fn) then
          faultf "race check: racy parallel loop(s) in %s"
            fn.Stmt.fn_name)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Race-check the auto-scheduled program: print the polyhedral \
          verifier's verdict for every parallel-annotated loop and exit \
          with status 1 if any loop is Racy")
    Term.(const run $ wl_arg $ device_arg)

let guard_cmd =
  let run w =
    guarded (fun () ->
        let _, fn, _, _ = workload_case w in
        print_string (Boundcheck.func_report fn);
        print_newline ();
        let _, fn_i, args_i, diff_i = workload_case w in
        Interp.run_func ~guard:true fn_i args_i;
        Printf.printf "interp (guarded): max |FT - reference| = %g\n"
          (diff_i ());
        let _, fn_c, args_c, diff_c = workload_case w in
        let cd = Compile_exec.compile ~guard:true fn_c in
        cd.Compile_exec.cd_run args_c [];
        Printf.printf "compiled (guarded): max |FT - reference| = %g\n"
          (diff_c ());
        match cd.Compile_exec.cd_guard with
        | Some g ->
          Printf.printf
            "guard stats: %d access site(s), %d elided (statically \
             proved), %d checked, %d runtime check(s) executed\n"
            g.Compile_exec.gs_sites g.Compile_exec.gs_elided
            g.Compile_exec.gs_checked g.Compile_exec.gs_checks
        | None -> ())
  in
  Cmd.v
    (Cmd.info "guard"
       ~doc:
         "Guarded execution: print the static bounds-prover report for \
          every access site, then run the workload under both executors \
          with the memory sanitizer on (runtime bounds checks on unproved \
          sites, uninitialized-read and NaN/Inf poison checks) and report \
          the guard statistics; exits 1 on any fault")
    Term.(const run $ wl_arg)

(* Bitwise equality over tensor buffers (NaN-safe, -0.0 distinct): the
   soak harness's acceptance bar for degraded results. *)
let bits_equal a b =
  let fa = Tensor.to_float_array a and fb = Tensor.to_float_array b in
  Array.length fa = Array.length fb
  && begin
       let ok = ref true in
       Array.iteri
         (fun i x ->
           if Int64.bits_of_float x <> Int64.bits_of_float fb.(i) then
             ok := false)
         fa;
       !ok
     end

(* ftc lower: run the IR-to-IR lowering pipeline standalone — dump the
   IR between stages, report how many nests blockized, and (--check)
   hold interp(lowered) to bitwise equality against interp(original).
   Honors FT_LOWER_INJECT=1, which appends the deliberately broken pass:
   --check is then expected to fail (the CI must-fail probe). *)
let lower_cmd =
  let run w dump_after dump_all check =
    guarded (fun () ->
        let name, fn, _, _ = workload_case w in
        let names = Lower.pass_names () in
        (match dump_after with
         | Some p when not (List.mem p names) ->
           faultf "lower: unknown pass %S (pipeline: %s)" p
             (String.concat ", " names)
         | _ -> ());
        let dump pname fn' =
          if dump_all || dump_after = Some pname then begin
            Printf.printf "==== after %s ====\n" pname;
            print_string (Printer.func_to_string fn')
          end
        in
        let lowered = Lower.lower ~dump fn in
        let rec count_mk (s : Stmt.t) =
          (match s.Stmt.node with Stmt.Microkernel _ -> 1 | _ -> 0)
          + List.fold_left (fun a c -> a + count_mk c) 0 (Stmt.children s)
        in
        Printf.printf "%s: pipeline [%s]; %d microkernel nest(s)\n" name
          (String.concat " -> " names)
          (count_mk lowered.Stmt.fn_body);
        if check then begin
          let _, fn_a, args_a, _ = workload_case w in
          let _, fn_b, args_b, _ = workload_case w in
          let lowered_b = Lower.lower fn_b in
          Interp.run_func fn_a args_a;
          Interp.run_func lowered_b args_b;
          let outs =
            List.filter_map
              (fun (p : Stmt.param) ->
                match p.Stmt.p_atype with
                | Types.Input -> None
                | _ -> Some p.Stmt.p_name)
              fn_a.Stmt.fn_params
          in
          List.iter
            (fun n ->
              if not (bits_equal (List.assoc n args_a) (List.assoc n args_b))
              then
                faultf
                  "lower %s: interp(lowered) output %s diverges bitwise \
                   from interp(original)"
                  name n)
            outs;
          Printf.printf
            "%s: interp(lowered) bitwise-equal to interp(original) on %d \
             output(s)\n"
            name (List.length outs)
        end)
  in
  let dump_after_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-after" ] ~docv:"PASS"
          ~doc:
            "Print the IR after the named pipeline pass (one of \
             normalize, hoist, blockize).")
  in
  let dump_all_arg =
    Arg.(
      value & flag
      & info [ "dump-all" ] ~doc:"Print the IR after every pass.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Run the reference interpreter on the original and the \
             lowered program and require bitwise-equal outputs; exits 1 \
             on divergence.")
  in
  Cmd.v
    (Cmd.info "lower"
       ~doc:
         "Run the IR lowering pipeline (normalize, hoist, blockize) \
          standalone: dump the IR between stages, count blockized \
          microkernel nests, and optionally verify the lowered program \
          bitwise against the original under the reference interpreter")
    Term.(const run $ wl_arg $ dump_after_arg $ dump_all_arg $ check_arg)

let soak_cmd =
  let run w seed faults requests min_avail =
    guarded (fun () ->
        let name, fn0, args, _ = workload_case w in
        (* auto-schedule so the parallel backend has annotated loops *)
        let fn = Auto.run ~device:Types.Cpu fn0 in
        let policy = Supervisor.default_policy in
        let sv = Supervisor.prepare ~policy fn in
        let out_names =
          List.filter_map
            (fun (p : Stmt.param) ->
              match p.Stmt.p_atype with
              | Types.Input -> None
              | _ -> Some p.Stmt.p_name)
            fn.Stmt.fn_params
        in
        let outputs () =
          List.filter (fun (n, _) -> List.mem n out_names) args
        in
        let pristine = List.map (fun (n, t) -> (n, Tensor.copy t)) args in
        let restore_all () =
          List.iter
            (fun (n, s) ->
              Tensor.copy_into ~src:s ~dst:(List.assoc n args))
            pristine
        in
        (* Fault-free reference outputs per backend: the bitwise bar a
           degraded result must clear for the backend that served it. *)
        let reference =
          List.map
            (fun b ->
              restore_all ();
              let sv1 =
                Supervisor.prepare ~policy:{ policy with backends = [ b ] }
                  fn
              in
              let o = Supervisor.exec sv1 args in
              (match o.Supervisor.result with
               | Some _ -> ()
               | None ->
                 faultf "soak %s: fault-free run on %s failed:\n%s" name
                   (Supervisor.backend_name b)
                   (Supervisor.outcome_to_string o));
              (b, List.map (fun (n, t) -> (n, Tensor.copy t)) (outputs ())))
            policy.backends
        in
        (* One clean supervised request to size the fault horizon. *)
        restore_all ();
        let warm = Supervisor.exec sv args in
        (match warm.Supervisor.result with
         | Some _ -> ()
         | None -> faultf "soak %s: clean warm-up request failed" name);
        (* Span several attempts' worth of kernels so plans can exercise
           retries and fallbacks, and so some ordinals land beyond what a
           successful run executes (those requests serve clean). *)
        let horizon =
          max 4 (Supervisor.served_kernels warm * (policy.retries + 2))
        in
        let clean = ref 0 and retried = ref 0 and degraded = ref 0 in
        let closed = ref 0 in
        let mismatches = ref 0 and uncaught = ref 0 in
        let attempts_total = ref 0 and fired_total = ref 0 in
        for r = 1 to requests do
          restore_all ();
          let plan =
            Machine.Fault_plan.make ~seed:(seed + (r * 7919)) ~faults
              ~horizon
          in
          match Supervisor.exec sv ~plan args with
          | exception _ -> incr uncaught
          | o ->
            attempts_total := !attempts_total + List.length o.Supervisor.attempts;
            fired_total :=
              !fired_total + List.length (Machine.Fault_plan.fired plan);
            (match o.Supervisor.result with
             | None ->
               incr closed;
               if o.Supervisor.diags = [] then incr uncaught
             | Some b ->
               (* degraded = actually demoted down the chain; a transient
                  absorbed by a retry on the primary counts separately. *)
               if o.Supervisor.degraded then incr degraded
               else if o.Supervisor.retried then incr retried
               else incr clean;
               let want = List.assoc b reference in
               if
                 not
                   (List.for_all
                      (fun (n, t) -> bits_equal t (List.assoc n want))
                      (outputs ()))
               then incr mismatches)
        done;
        let pct n = 100.0 *. float_of_int n /. float_of_int requests in
        let avail = pct (!clean + !retried + !degraded) in
        Printf.printf "soak %s: seed=%d faults=%d requests=%d horizon=%d\n"
          name seed faults requests horizon;
        Printf.printf "  succeeded clean     %4d  (%5.1f%%)\n" !clean
          (pct !clean);
        Printf.printf "  succeeded w/ retry  %4d  (%5.1f%%)\n" !retried
          (pct !retried);
        Printf.printf "  succeeded degraded  %4d  (%5.1f%%)\n" !degraded
          (pct !degraded);
        Printf.printf "  failed closed       %4d  (%5.1f%%)\n" !closed
          (pct !closed);
        Printf.printf
          "  availability        %5.1f%%  (clean + retried + degraded)\n"
          avail;
        Printf.printf
          "  mean attempts %.2f   injected faults fired %d\n"
          (float_of_int !attempts_total /. float_of_int requests)
          !fired_total;
        Printf.printf "  bitwise mismatches %d   uncaught exceptions %d\n"
          !mismatches !uncaught;
        if !uncaught > 0 then
          faultf "soak %s: %d uncaught exception(s)" name !uncaught;
        if !mismatches > 0 then
          faultf
            "soak %s: %d result(s) not bitwise-identical to the serving \
             backend's fault-free run"
            name !mismatches;
        if avail < min_avail *. 100.0 then
          faultf "soak %s: availability %.1f%% below the %.1f%% floor"
            name avail (min_avail *. 100.0))
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Fault-plan seed.")
  in
  let faults_arg =
    Arg.(
      value & opt int 3
      & info [ "faults" ] ~docv:"K"
          ~doc:"Injected faults per request (distinct kernel ordinals).")
  in
  let requests_arg =
    Arg.(
      value & opt int 50
      & info [ "requests" ] ~docv:"R" ~doc:"Requests to serve.")
  in
  let min_avail_arg =
    Arg.(
      value & opt float 0.99
      & info [ "min-availability" ] ~docv:"F"
          ~doc:
            "Fail (exit 1) when (clean + degraded) / requests drops below \
             this fraction.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Serve repeated requests through the execution supervisor under \
          seeded random fault plans (launch failures, transient compute \
          faults, simulated OOM) and print an availability/degradation \
          report; exits 1 on any uncaught exception, bitwise divergence, \
          or availability below the floor")
    Term.(
      const run $ wl_arg $ seed_arg $ faults_arg $ requests_arg
      $ min_avail_arg)

(* ftc serve: drive the workload through the multi-tenant serving layer
   under seeded open-loop load — compiled-artifact cache, request
   batching, supervisor resilience, overload control — and gate on
   availability of admitted requests, structured rejections, steady-state
   cache-hit-rate, zero recompiles after warmup (fault-free runs) and
   bitwise identity against per-backend fresh compiles.  Chaos modes:
   --burst overload phases, --crash-restart with snapshot warm-start,
   --corrupt-snapshot fault injection on the snapshot file. *)
let serve_cmd =
  let run w seed requests rate batch faults guard budget capacity
      min_avail min_hit burst virtual_time deadline_slack queue_high
      queue_low breaker_k breaker_cooldown snapshot_path crash_restart
      corrupt min_warm tenants verify_isolation =
    guarded (fun () ->
        if tenants < 1 then faultf "serve: --tenants must be >= 1";
        if verify_isolation && crash_restart then
          faultf
            "serve: --verify-isolation and --crash-restart do not compose";
        if verify_isolation && not virtual_time then
          faultf
            "serve: --verify-isolation requires --virtual-time (wall-clock \
             timelines are not deterministic)";
        let name, fn0, args, _ = workload_case w in
        (* auto-schedule so the parallel backend has annotated loops *)
        let fn = Auto.run ~device:Types.Cpu fn0 in
        let policy =
          { Supervisor.default_policy with
            Supervisor.guard;
            mem_budget_bytes = (if budget > 0 then Some budget else None) }
        in
        let overload =
          { Serve.ov_queue_high = queue_high;
            ov_queue_low = queue_low;
            ov_breaker_k = breaker_k;
            ov_breaker_cooldown = breaker_cooldown;
            ov_deadline_slack = deadline_slack;
            ov_ewma_warmup = Serve.default_overload.Serve.ov_ewma_warmup }
        in
        let out_names =
          List.filter_map
            (fun (p : Stmt.param) ->
              match p.Stmt.p_atype with
              | Types.Input -> None
              | _ -> Some p.Stmt.p_name)
            fn.Stmt.fn_params
        in
        let outputs_of a =
          List.filter (fun (n, _) -> List.mem n out_names) a
        in
        let pristine = List.map (fun (n, t) -> (n, Tensor.copy t)) args in
        let fresh_args () =
          List.map (fun (n, s) -> (n, Tensor.copy s)) pristine
        in
        (* Tenant fan-out: request [j] carries a dummy size binding
           [__t = j mod tenants].  The variable is absent from the
           program, so every tenant computes the same function, but the
           binding is part of the cache key — each tenant gets its own
           artifact instance, and a batch mixes keys, which is what the
           concurrent dispatcher fans out across domains. *)
        let sizes_of j =
          if tenants <= 1 then [] else [ ("__t", j mod tenants) ]
        in
        (* Per-request argument buffers: requests under different keys
           execute concurrently, so they cannot share tensors.  A
           request's buffers live in this table from materialization
           until its response is consumed. *)
        let req_args : (int, (string * Tensor.t) list) Hashtbl.t =
          Hashtbl.create 64
        in
        let materialize j =
          match Hashtbl.find_opt req_args j with
          | Some a ->
            (* Second call for the same id ([make_request] is called at
               admission and again at dispatch): restore pristine
               contents rather than allocating anew. *)
            List.iter
              (fun (n, s) -> Tensor.copy_into ~src:s ~dst:(List.assoc n a))
              pristine;
            a
          | None ->
            let a = fresh_args () in
            Hashtbl.add req_args j a;
            a
        in
        (* Fresh-compile fault-free reference outputs per backend,
           obtained through the serving path itself (shape
           specialization included, sizes as tenant 0 — every tenant
           runs the same program): the bitwise bar every soak result
           must clear for the backend that served it. *)
        let reference =
          List.map
            (fun b ->
              let srv1 =
                Serve.create
                  ~policy:{ policy with Supervisor.backends = [ b ] } ()
              in
              let a = fresh_args () in
              let r =
                Serve.serve srv1
                  (Serve.request ~sizes:(sizes_of 0) ~id:0 fn a)
              in
              (match r.Serve.rs_status with
               | Serve.Completed { Supervisor.result = Some _; _ } -> ()
               | _ ->
                 faultf "serve %s: fault-free reference run on %s failed"
                   name (Supervisor.backend_name b));
              (b, List.map (fun (n, t) -> (n, Tensor.copy t)) (outputs_of a)))
            policy.Supervisor.backends
        in
        (* Size the fault horizon from one clean supervised run (its
           supervisor is separate: the serving cache stays cold, so the
           soak observes the compulsory first miss). *)
        let horizon =
          if faults = 0 then 0
          else begin
            let sv = Supervisor.prepare ~policy fn in
            let warm = Supervisor.exec sv (fresh_args ()) in
            (match warm.Supervisor.result with
             | Some _ -> ()
             | None -> faultf "serve %s: clean warm-up request failed" name);
            max 4 (Supervisor.served_kernels warm
                   * (policy.Supervisor.retries + 2))
          end
        in
        (* Snapshot records resolve back to the one workload function. *)
        let fn_hash = Canon.canonical_hash fn in
        let resolve h = if h = fn_hash then Some fn else None in
        let phases =
          if burst > 1.0 then [ (0.25, 1.0); (0.5, burst); (0.25, 1.0) ]
          else []
        in
        let make_request j =
          let a = materialize j in
          let plan =
            if faults = 0 then None
            else
              Some
                (Machine.Fault_plan.make ~seed:(seed + (j * 7919)) ~faults
                   ~horizon)
          in
          Serve.request ?plan ~sizes:(sizes_of j) ~id:j fn a
        in
        let mismatches = ref 0 in
        let responses = ref 0 in
        let unstructured = ref 0 in
        (* Per-request isolation signature: everything the per-request
           run context and budget account for — status, serving backend,
           cache hit, guard-check delta, and the attempt log with each
           attempt's kernel and tick counters.  Identical between the
           concurrent soak and a one-domain sequential drain of the same
           seed iff no state leaked across requests. *)
        let signature (r : Serve.response) =
          let status =
            match r.Serve.rs_status with
            | Serve.Rejected d ->
              "rejected:" ^ Diag.code_to_string d.Diag.dg_code
            | Serve.Completed o ->
              Printf.sprintf "completed:%s:%b:%b"
                (match o.Supervisor.result with
                 | None -> "closed"
                 | Some b -> Supervisor.backend_name b)
                o.Supervisor.retried o.Supervisor.degraded
          in
          let attempts =
            match r.Serve.rs_status with
            | Serve.Rejected _ -> ""
            | Serve.Completed o ->
              String.concat ";"
                (List.map
                   (fun (a : Supervisor.attempt) ->
                     Printf.sprintf "%s/r%d/k%d/t%d/%s"
                       (Supervisor.backend_name a.Supervisor.at_backend)
                       a.Supervisor.at_retry a.Supervisor.at_kernels
                       a.Supervisor.at_ticks
                       (match a.Supervisor.at_fault with
                        | None -> "ok"
                        | Some d -> Diag.code_to_string d.Diag.dg_code))
                   o.Supervisor.attempts)
          in
          Printf.sprintf "%s|hit=%b|guards=%d|%s" status r.Serve.rs_hit
            r.Serve.rs_guard_checks attempts
        in
        let handle_response ~count sigs (r : Serve.response) =
          let j = r.Serve.rs_id in
          if count then incr responses;
          (match sigs with
           | Some a when j >= 0 && j < Array.length a -> a.(j) <- signature r
           | _ -> ());
          (match r.Serve.rs_status with
           | Serve.Rejected d ->
             (* Every refusal must carry a structured admission or
                overload diagnostic — sheds are never silent drops. *)
             (match d.Diag.dg_code with
              | Diag.Oom | Diag.Overload -> ()
              | _ -> incr unstructured)
           | Serve.Completed o ->
             (match o.Supervisor.result with
              | None -> ()
              | Some b ->
                let want = List.assoc b reference in
                let a =
                  Option.value ~default:[] (Hashtbl.find_opt req_args j)
                in
                if
                  not
                    (List.for_all
                       (fun (n, t) -> bits_equal t (List.assoc n want))
                       (outputs_of a))
                then incr mismatches));
          Hashtbl.remove req_args j
        in
        let sigs_main = Array.make (max 1 requests) "" in
        let on_response _ r = handle_response ~count:true (Some sigs_main) r in
        (* Request ids (and hence fault-plan seeds) are global across
           phases, so a crash-restart run replays the same chaos a
           single-phase run of the same seed would. *)
        let soak_on ?(on_response = on_response) srv ~first ~count =
          let cfg =
            Serve.soak_cfg ~phases ~virtual_time ~seed:(seed + first)
              ~requests:count ~rate ~batch ()
          in
          Serve.soak ~on_response srv ~cfg
            ~make_request:(fun j -> make_request (first + j))
        in
        Printf.printf
          "serve %s: seed=%d rate=%.0f/s batch<=%d faults=%d workers=%d%s%s%s%s%s%s%s\n"
          name seed rate batch faults
          (Exec_par.num_domains ())
          (if tenants > 1 then Printf.sprintf " tenants=%d" tenants else "")
          (if guard then " guard" else "")
          (if budget > 0 then Printf.sprintf " budget=%dB" budget else "")
          (if burst > 1.0 then Printf.sprintf " burst=%gx" burst else "")
          (if virtual_time then " virtual-time" else "")
          (if crash_restart then " crash-restart" else "")
          (if verify_isolation then " verify-isolation" else "");
        let reports = ref [] in
        (if crash_restart then begin
           let path =
             match snapshot_path with
             | Some p -> p
             | None ->
               let p = Filename.temp_file "ftc-serve" ".snap" in
               (* temp_file creates the file; phase A must start cold *)
               (try Sys.remove p with Sys_error _ -> ());
               p
           in
           let half = max 1 (requests / 2) in
           let rest = requests - half in
           let srv1 = Serve.create ~capacity ~overload ~policy () in
           let r1 = soak_on srv1 ~first:0 ~count:half in
           reports := ("phase A (before crash)", r1) :: !reports;
           let saved = Serve.save_snapshot srv1 ~path in
           Printf.printf "  snapshot: saved %d record(s) to %s\n" saved path;
           (match corrupt with
            | `None -> ()
            | `Truncate ->
              Snapshot.corrupt_truncate ~path ();
              print_endline "  snapshot: injected truncation";
            | `Bitflip ->
              Snapshot.corrupt_bitflip ~path;
              print_endline "  snapshot: injected bit-flip");
           (* The "crash": srv1 and all its in-memory state are gone. *)
           let srv2 = Serve.create ~capacity ~overload ~policy () in
           let wr = Serve.load_snapshot srv2 ~path ~resolve in
           Printf.printf "  restart: %s\n" (Serve.warm_report_to_string wr);
           (match corrupt with
            | `None ->
              (match wr.Serve.ws_corrupt with
               | Some reason ->
                 faultf
                   "serve %s: snapshot reported corrupt with no injected \
                    corruption: %s"
                   name reason
               | None -> ());
              if rest > 0 then begin
                let r2 = soak_on srv2 ~first:half ~count:rest in
                reports := ("phase B (warm restart)", r2) :: !reports;
                if r2.Serve.sk_warm_rate < min_warm then
                  faultf
                    "serve %s: warm-start rate %.1f%% after restart below \
                     the %.1f%% floor"
                    name
                    (100.0 *. r2.Serve.sk_warm_rate)
                    (100.0 *. min_warm)
              end
            | `Truncate | `Bitflip ->
              (match wr.Serve.ws_corrupt with
               | Some _ -> ()
               | None ->
                 faultf
                   "serve %s: injected snapshot corruption went undetected"
                   name);
              if wr.Serve.ws_loaded <> 0 then
                faultf
                  "serve %s: %d entr(ies) loaded from a corrupt snapshot"
                  name wr.Serve.ws_loaded;
              if rest > 0 then begin
                let r2 = soak_on srv2 ~first:half ~count:rest in
                reports := ("phase B (cold rebuild)", r2) :: !reports
              end);
           (* Don't leave throwaway snapshot files behind. *)
           if snapshot_path = None then
             (try Sys.remove path with Sys_error _ -> ())
         end
         else begin
           let srv = Serve.create ~capacity ~overload ~policy () in
           (match snapshot_path with
            | Some p ->
              let wr = Serve.load_snapshot srv ~path:p ~resolve in
              Printf.printf "  %s\n" (Serve.warm_report_to_string wr)
            | None -> ());
           let r = soak_on srv ~first:0 ~count:requests in
           reports := ("soak", r) :: !reports;
           (match snapshot_path with
            | Some p ->
              let saved = Serve.save_snapshot srv ~path:p in
              Printf.printf "  snapshot: saved %d record(s) to %s\n" saved p
            | None -> ());
           (* Containment verification: drain the identical load
              through a fresh server that dispatches groups one at a
              time (same pool size and chunking — dispatch concurrency
              is the only variable) and require every per-request
              signature, and the aggregate counters, to match the
              concurrent run.  Any cross-request state leak (a shared
              run context's fault plan, deadline clock or cost
              counters, a shared budget, a clobbered guard delta)
              drifts a signature.  Under FT_ISOLATION_INJECT=1 the run
              context is deliberately process-global, and this gate
              must fail. *)
           if verify_isolation then begin
             let sigs_seq = Array.make (max 1 requests) "" in
             let r_seq =
               let srv2 =
                 Serve.create ~capacity ~overload ~sequential_dispatch:true
                   ~policy ()
               in
               soak_on srv2
                 ~on_response:(fun _ r ->
                   handle_response ~count:false (Some sigs_seq) r)
                 ~first:0 ~count:requests
             in
             let violations = ref [] in
             for j = requests - 1 downto 0 do
               if sigs_seq.(j) <> sigs_main.(j) then
                 violations := j :: !violations
             done;
             Printf.printf
               "  isolation: %d/%d per-request signatures match the \
                sequential drain\n"
               (requests - List.length !violations)
               requests;
             (match !violations with
              | [] -> ()
              | j :: _ ->
                faultf
                  "serve %s: %d request(s) diverge from the sequential \
                   drain (isolation violation); first at request %d:\n\
                  \  concurrent: %s\n\
                  \  sequential: %s"
                  name
                  (List.length !violations)
                  j sigs_main.(j) sigs_seq.(j));
             let agg (x : Serve.soak_report) =
               ( x.Serve.sk_served_clean, x.Serve.sk_retried,
                 x.Serve.sk_degraded, x.Serve.sk_failed,
                 x.Serve.sk_rejected, x.Serve.sk_shed_admission,
                 x.Serve.sk_shed_deadline, x.Serve.sk_compiles,
                 x.Serve.sk_guard_checks, x.Serve.sk_makespan_s )
             in
             if agg r_seq <> agg r then
               faultf
                 "serve %s: aggregate soak counters diverge from the \
                  sequential drain (isolation violation)"
                 name
           end
         end);
        let reports = List.rev !reports in
        List.iter
          (fun (lbl, r) ->
            Printf.printf "-- %s --\n%s\n" lbl
              (Serve.soak_report_to_string r))
          reports;
        Printf.printf "  bitwise mismatches vs fresh compile: %d\n"
          !mismatches;
        let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 reports in
        let served =
          sum (fun r ->
              r.Serve.sk_served_clean + r.Serve.sk_retried
              + r.Serve.sk_degraded)
        in
        let shed =
          sum (fun r -> r.Serve.sk_shed_admission + r.Serve.sk_shed_deadline)
        in
        let admitted = requests - shed in
        if !responses <> requests then
          faultf "serve %s: %d request(s) vanished without a response"
            name (requests - !responses);
        if !unstructured > 0 then
          faultf
            "serve %s: %d rejection(s) without an admission/overload \
             diagnostic"
            name !unstructured;
        if !mismatches > 0 then
          faultf
            "serve %s: %d result(s) not bitwise-identical to the serving \
             backend's fresh compile"
            name !mismatches;
        if virtual_time && sum (fun r -> r.Serve.sk_deadline_miss) > 0 then
          faultf
            "serve %s: deadline miss(es) under virtual time — shedding \
             should have refused those requests"
            name;
        let avail =
          float_of_int served /. float_of_int (max 1 admitted)
        in
        if avail < min_avail then
          faultf
            "serve %s: availability %.1f%% of %d admitted request(s) \
             below the %.1f%% floor"
            name (100.0 *. avail) admitted (100.0 *. min_avail);
        List.iter
          (fun (lbl, r) ->
            if r.Serve.sk_hit_rate < min_hit then
              faultf
                "serve %s: steady-state cache-hit-rate %.1f%% (%s) below \
                 the %.1f%% floor"
                name
                (100.0 *. r.Serve.sk_hit_rate)
                lbl (100.0 *. min_hit))
          reports;
        if
          faults = 0
          && sum (fun r -> r.Serve.sk_recompiles_after_warmup) > 0
        then
          faultf
            "serve %s: %d recompile(s) after warmup in a fault-free soak"
            name
            (sum (fun r -> r.Serve.sk_recompiles_after_warmup)))
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Arrival-process and fault-plan seed.")
  in
  let requests_arg =
    Arg.(
      value & opt int 500
      & info [ "requests" ] ~docv:"R" ~doc:"Requests to serve.")
  in
  let rate_arg =
    Arg.(
      value & opt float 500.0
      & info [ "rate" ] ~docv:"F"
          ~doc:"Mean open-loop arrival rate, requests/second.")
  in
  let batch_arg =
    Arg.(
      value & opt int 8
      & info [ "batch" ] ~docv:"B"
          ~doc:"Max queued requests drained per batch.")
  in
  let faults_arg =
    Arg.(
      value & opt int 0
      & info [ "faults" ] ~docv:"K"
          ~doc:"Injected faults per request (0 = fault-free).")
  in
  let guard_arg =
    Arg.(
      value & flag
      & info [ "guard" ]
          ~doc:
            "Serve with guarded execution; the report counts per-request \
             runtime bounds checks via guard-counter snapshots.")
  in
  let budget_arg =
    Arg.(
      value & opt int 0
      & info [ "budget" ] ~docv:"BYTES"
          ~doc:
            "Memory budget shared by each batch (0 = none); admission \
             control rejects requests whose arguments alone exceed it.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 16
      & info [ "cache-capacity" ] ~docv:"C"
          ~doc:"Artifact-cache LRU capacity.")
  in
  let min_avail_arg =
    Arg.(
      value & opt float 1.0
      & info [ "min-availability" ] ~docv:"F"
          ~doc:
            "Fail (exit 1) when served / requests drops below this \
             fraction.")
  in
  let min_hit_arg =
    Arg.(
      value & opt float 0.9
      & info [ "min-hit-rate" ] ~docv:"F"
          ~doc:
            "Fail (exit 1) when the steady-state cache-hit-rate drops \
             below this fraction.")
  in
  let burst_arg =
    Arg.(
      value & opt float 1.0
      & info [ "burst" ] ~docv:"M"
          ~doc:
            "Overload burst: the middle half of the soak arrives at M x \
             the base rate (phases 25%/50%/25%).  1.0 = steady load.")
  in
  let virtual_arg =
    Arg.(
      value & flag
      & info [ "virtual-time" ]
          ~doc:
            "Advance the soak timeline by the cost model's service \
             estimate per request instead of measured wall-clock: fully \
             deterministic, and enables modeled default deadlines.")
  in
  let slack_arg =
    Arg.(
      value & opt float 8.0
      & info [ "deadline-slack" ] ~docv:"S"
          ~doc:
            "Default relative deadline = S x the modeled service time \
             (takes effect under $(b,--virtual-time), where the \
             timeline shares the model's units).")
  in
  let queue_high_arg =
    Arg.(
      value & opt int 0
      & info [ "queue-high" ] ~docv:"N"
          ~doc:
            "Queue depth that triggers admission shedding (0 = \
             unbounded queue).")
  in
  let queue_low_arg =
    Arg.(
      value & opt int 0
      & info [ "queue-low" ] ~docv:"N"
          ~doc:
            "Queue depth at which admission shedding stops again \
             (hysteresis; must be below $(b,--queue-high)).")
  in
  let breaker_k_arg =
    Arg.(
      value & opt int 3
      & info [ "breaker-k" ] ~docv:"K"
          ~doc:
            "Consecutive primary failures on a cache key that trip its \
             circuit breaker (0 disables breakers).")
  in
  let breaker_cooldown_arg =
    Arg.(
      value & opt int 8
      & info [ "breaker-cooldown" ] ~docv:"N"
          ~doc:
            "Fallback-served requests on a tripped key before the \
             half-open probe.")
  in
  let snapshot_arg =
    Arg.(
      value & opt (some string) None
      & info [ "snapshot" ] ~docv:"PATH"
          ~doc:
            "Cache-metadata snapshot file: loaded (warm start) before \
             the soak if present, saved after it.  With \
             $(b,--crash-restart) this is the file the restart reloads.")
  in
  let crash_arg =
    Arg.(
      value & flag
      & info [ "crash-restart" ]
          ~doc:
            "Chaos mode: serve the first half of the load, snapshot the \
             cache, discard the server (simulated crash), warm-start a \
             fresh one from the snapshot and serve the rest.  Gates on \
             the warm-start rate ($(b,--min-warm-hit)).")
  in
  let corrupt_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("none", `None); ("truncate", `Truncate);
               ("bitflip", `Bitflip) ])
          `None
      & info [ "corrupt-snapshot" ] ~docv:"MODE"
          ~doc:
            "With $(b,--crash-restart): damage the snapshot between \
             crash and restart (truncate = torn write, bitflip = silent \
             media corruption).  The gate then requires detection plus \
             a clean cold rebuild.")
  in
  let min_warm_arg =
    Arg.(
      value & opt float 0.8
      & info [ "min-warm-hit" ] ~docv:"F"
          ~doc:
            "Fail (exit 1) when the warm-start rate after a \
             crash-restart drops below this fraction.")
  in
  let tenants_arg =
    Arg.(
      value & opt int 1
      & info [ "tenants" ] ~docv:"T"
          ~doc:
            "Fan the workload out as T tenants: request j carries a \
             dummy size binding (__t = j mod T), so each tenant gets \
             its own cache key and artifact instance while computing \
             the same function — a batch then mixes keys, and the \
             concurrent dispatcher fans the groups out across the \
             domain pool.")
  in
  let verify_isolation_arg =
    Arg.(
      value & flag
      & info [ "verify-isolation" ]
          ~doc:
            "After the soak, drain the identical load through a fresh \
             server that dispatches groups one at a time (same pool \
             size — dispatch concurrency is the only variable) and \
             require every per-request signature — status, backend, \
             cache hit, guard checks, and the attempt log's kernel/tick \
             counters — plus the aggregate soak counters to match the \
             concurrent run; exits 1 on any divergence.  Requires \
             $(b,--virtual-time).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the workload through the multi-tenant serving layer \
          under seeded open-loop load: compiled-artifact cache with \
          shape specialization and LRU bounds, EDF request scheduling \
          with deadline-aware load shedding, bounded-queue admission, \
          per-key circuit breakers, crash-safe cache snapshots, request \
          batching over the execution supervisor, admission control \
          against the memory budget, concurrent batch dispatch across \
          the domain pool with per-request fault isolation \
          ($(b,--tenants), $(b,--verify-isolation)).  Reports \
          throughput, p50/p99 latency, shed/deadline-miss counts, \
          cache-hit and warm-start rates, breaker activity and the \
          batch-size histogram; exits 1 on bitwise divergence from \
          fresh compiles, unstructured rejections, missing responses, \
          availability or hit-rate below their floors, undetected \
          snapshot corruption, isolation violations, or any recompile \
          after warmup in a fault-free soak")
    Term.(
      const run $ wl_arg $ seed_arg $ requests_arg $ rate_arg $ batch_arg
      $ faults_arg $ guard_arg $ budget_arg $ capacity_arg $ min_avail_arg
      $ min_hit_arg $ burst_arg $ virtual_arg $ slack_arg $ queue_high_arg
      $ queue_low_arg $ breaker_k_arg $ breaker_cooldown_arg $ snapshot_arg
      $ crash_arg $ corrupt_arg $ min_warm_arg $ tenants_arg
      $ verify_isolation_arg)

(* ftc litmus: the exhaustive transformation-correctness harness.
   Enumerates every skeleton program within --depth/--stmts, every
   applicable schedule sequence up to --sched-len, dedups both by
   canonical hash, and differentially verifies every surviving pair
   (interp vs compiled, sequential and parallel) while cross-checking
   the static race/bounds verdicts against the sanitizers.  TransForm-
   style streaming: one "New hash (unique/total)" line per novel
   program, "Results,..." summary lines at the end. *)
let litmus_cmd =
  let run depth stmts sched_len budget inject corpus_dir progress_every
      max_failures quiet =
    guarded (fun () ->
        let mutation = if inject then `Off_by_one else `None in
        (match corpus_dir with
         | Some d when not (Sys.file_exists d) -> Sys.mkdir d 0o755
         | _ -> ());
        let cfg =
          { Ft_litmus.Harness.depth; stmts; sched_len; budget; max_failures;
            mutation; corpus_dir;
            progress =
              (if quiet then ignore
               else fun line ->
                 print_endline line;
                 flush stdout);
            progress_every }
        in
        let stats = Ft_litmus.Harness.run cfg in
        List.iter print_endline (Ft_litmus.Harness.report stats);
        let n_fail = List.length stats.Ft_litmus.Harness.failures in
        if n_fail > 0 then
          faultf "litmus: %d failing pair(s)%s" n_fail
            (if inject then " (miscompile injection is on)" else ""))
  in
  let depth_arg =
    Arg.(
      value & opt int 1
      & info [ "depth" ] ~docv:"D" ~doc:"Max loop-nesting depth.")
  in
  let stmts_arg =
    Arg.(
      value & opt int 2
      & info [ "stmts" ] ~docv:"S" ~doc:"Max statement-node count.")
  in
  let sched_len_arg =
    Arg.(
      value & opt int 1
      & info [ "sched-len" ] ~docv:"K" ~doc:"Max schedule-sequence length.")
  in
  let budget_arg =
    Arg.(
      value & opt int 0
      & info [ "budget" ] ~docv:"N"
          ~doc:"Stop after checking N pairs (0 = run to exhaustion).")
  in
  let inject_arg =
    Arg.(
      value & flag
      & info [ "inject-miscompile" ]
          ~doc:
            "Compile through a deliberately wrong executor (off-by-one \
             store index) to validate that the harness catches and \
             shrinks miscompiles; the run is expected to fail.")
  in
  let corpus_arg =
    Arg.(
      value & opt (some string) None
      & info [ "corpus-dir" ] ~docv:"DIR"
          ~doc:"Write shrunk failing cases as DIR/shrunk-*.litmus.")
  in
  let progress_every_arg =
    Arg.(
      value & opt int 500
      & info [ "progress-every" ] ~docv:"N"
          ~doc:"Status line every N checked pairs (0 = off).")
  in
  let max_failures_arg =
    Arg.(
      value & opt int 10
      & info [ "max-failures" ] ~docv:"N"
          ~doc:"Stop after N failures (0 = keep going).")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress per-hash progress lines.")
  in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:
         "Exhaustively enumerate small programs and schedule sequences \
          to a bound, dedup by canonical hash, and differentially verify \
          every pair across executors while cross-checking static \
          race/bounds verdicts against the sanitizers; exits 1 on any \
          mismatch or soundness violation")
    Term.(
      const run $ depth_arg $ stmts_arg $ sched_len_arg $ budget_arg
      $ inject_arg $ corpus_arg $ progress_every_arg $ max_failures_arg
      $ quiet_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let group =
    Cmd.group ~default
      (Cmd.info "ftc" ~version:"1.0.0"
         ~doc:"FreeTensor: free-form tensor program compiler")
      [ show_cmd; schedule_cmd; codegen_cmd; grad_cmd; estimate_cmd;
        run_cmd; profile_cmd; check_cmd; guard_cmd; lower_cmd; soak_cmd;
        serve_cmd; litmus_cmd ]
  in
  (* 0 = ok, 1 = fault (guarded already exited for handled faults; an
     escaped exception lands here), 2 = usage. *)
  exit
    (match Cmd.eval_value group with
     | Ok (`Ok () | `Version | `Help) -> 0
     | Error (`Parse | `Term) -> 2
     | Error `Exn -> 1)
