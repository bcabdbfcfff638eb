(** Pipeline pass 3: strength-reduced tensor addressing, as a reusable
    analysis.

    {!plan} turns an index list against static strides into an affine
    offset form (variable coefficients + constant), the input to the
    backend's running-offset trackers.  Both closure paths of the
    compiled backend (plain and guarded) share it; the backend wires each
    named term to the enclosing loop's iterator cell (see
    [Compile_exec.compile_offset]). *)

open Ft_ir

type plan = {
  pl_terms : (string * int) list;
      (** variable name -> flat-offset coefficient, nonzero entries *)
  pl_const : int;  (** constant part of the flat offset, elements *)
}

(* Row-major element strides of a static shape. *)
let static_strides (dims : int array) : int array =
  let n = Array.length dims in
  let s = Array.make n 1 in
  for k = n - 2 downto 0 do
    s.(k) <- s.(k + 1) * dims.(k + 1)
  done;
  s

(** [plan ~strides idx] is the affine flat-offset form of [idx], or
    [None] when any index is non-affine (contains loads, selects,
    non-constant multiplications, inexact division...). *)
let plan ~(strides : int array) (idx : Expr.t list) : plan option =
  if Array.length strides <> List.length idx then None
  else
    let forms = List.map Linear.of_expr idx in
    if List.for_all Option.is_some forms then
      let total, _ =
        List.fold_left
          (fun (acc, k) f ->
            (Linear.add acc (Linear.scale strides.(k) (Option.get f)), k + 1))
          (Linear.zero, 0) forms
      in
      let terms =
        Linear.fold_terms (fun acc v a -> (v, a) :: acc) [] total
      in
      Some { pl_terms = terms; pl_const = total.Linear.const }
    else None
