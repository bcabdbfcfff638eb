(** Hand-written flat microkernels for blockized loop nests.

    Each kernel is the tensorized form of a scalar nest recognized by
    {!Ft_lower.Blockize}; operands arrive as raw float buffers
    ({!Ft_runtime.Tensor.float_data}) plus a flat base offset and one
    constant element stride per kernel loop.

    Bitwise contract: the runtime stores every float dtype as a full
    IEEE double, so preserving the scalar nest's {e per-output-element}
    operation sequence (same multiplies and adds, in the same order, on
    the same values) makes each kernel's result bitwise equal to the
    loop nest it replaced — which is exactly what the differential
    oracle demands.  Register accumulators are sound because every
    recognized destination is distinct from the source tensors, so no
    load in the nest can observe a deferred store.

    Loops deliberately use [Array.unsafe_get]/[unsafe_set]: like the
    rest of the unguarded compiled path, in-bounds access is the
    program's obligation (the guarded path never runs these kernels). *)

(* annotated so the primitives are the unboxed float-array ones (a
   polymorphic accessor boxes every element it reads) *)
let ( .!() ) (a : float array) k = Array.unsafe_get a k
let ( .!()<- ) (a : float array) k v = Array.unsafe_set a k v

(** Register-tiled i-j-k matmul generalized to arbitrary constant
    strides: for each [(i, j)], [C] starts from [init] (or its current
    value) and accumulates [A .* B] over [k] ascending — the scalar
    nest's exact per-element order.  The [j] dimension is processed in
    tiles of 4 register accumulators ([jt] below); [C]'s [j]-stride must
    be nonzero so tile elements are distinct cells (the recognizer
    guarantees it). *)
let matmul ~m ~n ~kdim ~(init : float option) ~(c : float array) ~cb ~csi
    ~csj ~(a : float array) ~ab ~asi ~asj ~ask ~(b : float array) ~bb ~bsi
    ~bsj ~bsk =
  for i = 0 to m - 1 do
    let ci = cb + (i * csi) in
    let ai = ab + (i * asi) in
    let bi = bb + (i * bsi) in
    let j = ref 0 in
    while !j + 4 <= n do
      let j0 = !j in
      let c0 = ci + (j0 * csj) in
      let a0 = ai + (j0 * asj) and b0 = bi + (j0 * bsj) in
      let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
      (match init with
       | Some v ->
         s0 := v;
         s1 := v;
         s2 := v;
         s3 := v
       | None ->
         s0 := c.!(c0);
         s1 := c.!(c0 + csj);
         s2 := c.!(c0 + (2 * csj));
         s3 := c.!(c0 + (3 * csj)));
      for k = 0 to kdim - 1 do
        let ak = a0 + (k * ask) and bk = b0 + (k * bsk) in
        s0 := !s0 +. (a.!(ak) *. b.!(bk));
        s1 := !s1 +. (a.!(ak + asj) *. b.!(bk + bsj));
        s2 := !s2 +. (a.!(ak + (2 * asj)) *. b.!(bk + (2 * bsj)));
        s3 := !s3 +. (a.!(ak + (3 * asj)) *. b.!(bk + (3 * bsj)))
      done;
      c.!(c0) <- !s0;
      c.!(c0 + csj) <- !s1;
      c.!(c0 + (2 * csj)) <- !s2;
      c.!(c0 + (3 * csj)) <- !s3;
      j := j0 + 4
    done;
    (* tail columns, one register accumulator each *)
    for j = !j to n - 1 do
      let co = ci + (j * csj) in
      let a0 = ai + (j * asj) and b0 = bi + (j * bsj) in
      let s = ref (match init with Some v -> v | None -> c.!(co)) in
      for k = 0 to kdim - 1 do
        s := !s +. (a.!(a0 + (k * ask)) *. b.!(b0 + (k * bsk)))
      done;
      c.!(co) <- !s
    done
  done

(** Dot product into an invariant cell: [d += Σ_k a[k]·b[k]], register
    accumulator seeded from the destination's current value. *)
let dot ~kdim ~(d : float array) ~db ~(a : float array) ~ab ~as_
    ~(b : float array) ~bb ~bs =
  let s = ref d.!(db) in
  for k = 0 to kdim - 1 do
    s := !s +. (a.!(ab + (k * as_)) *. b.!(bb + (k * bs)))
  done;
  d.!(db) <- !s

(** Fused multiply-accumulate over strided arrays:
    [d[k] += a[k]·b[k]] — per-trip read-modify-write, exactly the
    scalar order (the destination varies with [k], so no register
    accumulator applies). *)
let axpy ~kdim ~(d : float array) ~db ~ds ~(a : float array) ~ab ~as_
    ~(b : float array) ~bb ~bs =
  for k = 0 to kdim - 1 do
    let o = db + (k * ds) in
    d.!(o) <- d.!(o) +. (a.!(ab + (k * as_)) *. b.!(bb + (k * bs)))
  done

(** Strided sum reduction into an invariant cell. *)
let reduce ~kdim ~(d : float array) ~db ~(a : float array) ~ab ~as_ =
  let s = ref d.!(db) in
  for k = 0 to kdim - 1 do
    s := !s +. a.!(ab + (k * as_))
  done;
  d.!(db) <- !s
