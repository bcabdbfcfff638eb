(** The lowering pipeline: an ordered list of small, individually
    differential-testable IR-to-IR rewrites, run by the compiled backend
    before closure compilation.

    Passes in order:

    + {b normalize} ({!Normalize}) — constant folding, branch
      elimination, degenerate-loop removal;
    + {b hoist} ({!Hoist}) — loop unswitching of invariant guards;
    + {b blockize} ({!Blockize}) — wrap matmul/dot/axpy/reduce nests in
      [Microkernel] intrinsics.

    The fourth leg of the pipeline, strength-reduced addressing
    ({!Address}), is an expression-level rewrite applied at
    offset-compilation time inside the backend (it needs the compile
    environment's iterator cells), shared by the plain and guarded paths
    alike.

    Every pass is semantics-preserving: the interpreter run of the
    lowered function must be bitwise equal to the interpreter run of the
    input (passes have no rounding freedom — they never reassociate
    floating-point reductions).  The litmus oracle and the QCheck suite
    in [test/test_lower.ml] enforce exactly that.

    Environment knobs:

    - [FT_LOWER=0] disables the pipeline (the backend compiles the
      un-lowered tree) — used to measure the pipeline's own speedup;
    - [FT_LOWER_INJECT=1] appends a deliberately broken pass that
      shifts the first dynamically-indexed store by one element — a
      must-fail probe that the differential suites actually catch
      miscompiles. *)

open Ft_ir

type pass = {
  p_name : string;
  p_run : Stmt.func -> Stmt.func;
}

(* The deliberate miscompile: rewrite the first [Store] whose first
   index is non-constant from [t[e, ...] = v] to [t[max(e-1,0), ...] =
   v].  Still in bounds (so no guard can object) but lands on the wrong
   cell — exactly the class of bug the differential oracle must catch. *)
let inject_run (fn : Stmt.func) : Stmt.func =
  let done_ = ref false in
  let body =
    Stmt.map_bottom_up
      (fun s ->
        match s.Stmt.node with
        | Stmt.Store ({ Stmt.s_indices = e :: rest; _ } as st)
          when (not !done_) && not (Expr.is_constant e) ->
          done_ := true;
          let e' = Expr.max_ (Expr.sub e (Expr.int 1)) (Expr.int 0) in
          Stmt.with_node s (Stmt.Store { st with Stmt.s_indices = e' :: rest })
        | _ -> s)
      fn.Stmt.fn_body
  in
  { fn with Stmt.fn_body = body }

let base_passes =
  [ { p_name = "normalize"; p_run = Normalize.run };
    { p_name = "hoist"; p_run = Hoist.run };
    { p_name = "blockize"; p_run = Blockize.run } ]

let inject_pass = { p_name = "inject"; p_run = inject_run }

(** Pipeline gate: [FT_LOWER=0] turns lowering off. *)
let enabled () =
  match Sys.getenv_opt "FT_LOWER" with Some "0" -> false | _ -> true

let inject_requested () = Sys.getenv_opt "FT_LOWER_INJECT" = Some "1"

(** The passes that will run, in order (including the injected broken
    pass when requested). *)
let passes () =
  if inject_requested () then base_passes @ [ inject_pass ]
  else base_passes

let pass_names () = List.map (fun p -> p.p_name) (passes ())

(** Run the pipeline.  [dump name fn'] is called after each pass with
    the pass name and its output ([ftc lower --dump-after] hooks in
    here). *)
let lower ?(dump = fun _ _ -> ()) (fn : Stmt.func) : Stmt.func =
  List.fold_left
    (fun fn p ->
      let fn' = p.p_run fn in
      dump p.p_name fn';
      fn')
    fn (passes ())
