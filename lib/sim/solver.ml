(* The pluggable linear-solver layer.

   Everything between device stamping and the Newton update goes through
   this module: [Engine] stamps into an opaque solver value and reads the
   solution back out, never touching a concrete matrix representation.
   The [Dense] arm wraps the seed path (an [Mna.system] plus [Lu]
   scratch) and performs the identical float operations in the identical
   order, so selecting it reproduces seed results bit for bit.  The
   [Sparse] arm compiles the stamp pattern once per topology and then
   refactorises numerically (see {!Sparse}); [Auto] picks between them by
   capacity, so small circuits keep the dense solver that beats sparse
   machinery at their size. *)

type backend = Auto | Dense | Sparse

(* Below this many unknowns the dense solver's tight loops win over
   pattern compilation and indexed scatter; above it the O(n^3) factor
   dominates everything.  The crossover on this kernel sits well under
   100 unknowns, but the threshold leans dense so that seed-sized
   circuits keep seed behaviour exactly. *)
let auto_threshold = 100

let backend_to_string = function
  | Auto -> "auto"
  | Dense -> "dense"
  | Sparse -> "sparse"

let backend_of_string = function
  | "auto" -> Ok Auto
  | "dense" -> Ok Dense
  | "sparse" -> Ok Sparse
  | s -> Error (Printf.sprintf "unknown solver backend %S (want auto|dense|sparse)" s)

exception Singular of int

type dense = {
  sys : Mna.system;
  scratch : Lu.scratch;
  mutable dn : int; (* active size of the current stamp *)
  mutable solves : int; (* cumulative; [flush_stats] reports deltas *)
  mutable reported_solves : int;
}

type sparse = {
  sp : Sparse.t;
  mutable r_full : int;
  mutable r_refactor : int;
  mutable r_solve : int;
  mutable r_symbolic : int;
  mutable r_repivot : int;
}

type t = D of dense | S of sparse

let create backend ~capacity =
  let capacity = max capacity 1 in
  let backend =
    match backend with
    | Auto -> if capacity >= auto_threshold then Sparse else Dense
    | (Dense | Sparse) as b -> b
  in
  match backend with
  | Dense ->
    D
      {
        sys = { Mna.a = Array.make_matrix capacity capacity 0.0; b = Array.make capacity 0.0 };
        scratch = Lu.make_scratch capacity;
        dn = 0;
        solves = 0;
        reported_solves = 0;
      }
  | Sparse ->
    S
      {
        sp = Sparse.create ~capacity;
        r_full = 0;
        r_refactor = 0;
        r_solve = 0;
        r_symbolic = 0;
        r_repivot = 0;
      }
  | Auto -> assert false

let backend = function D _ -> Dense | S _ -> Sparse

let capacity = function
  | D d -> Lu.scratch_capacity d.scratch
  | S s -> Sparse.capacity s.sp

let begin_stamp t ~n =
  match t with
  | D d ->
    if n > Array.length d.sys.Mna.b then
      invalid_arg "Solver.begin_stamp: n exceeds capacity";
    d.dn <- n;
    Mna.clear ~n d.sys
  | S s -> Sparse.begin_stamp s.sp ~n

let add t i j v =
  match t with
  | D d -> Mna.add_jacobian d.sys i j v
  | S s -> Sparse.add s.sp i j v

let add_rhs t i v =
  match t with
  | D d -> Mna.add_rhs d.sys i v
  | S s -> Sparse.add_rhs s.sp i v

let add_conductance t i j g =
  add t i i g;
  add t j j g;
  add t i j (-.g);
  add t j i (-.g)

let add_current t i x = add_rhs t i x

let finish t = match t with D _ -> () | S s -> Sparse.finish s.sp

let factor_solve t =
  match t with
  | D d -> begin
    match Lu.factor_solve ~n:d.dn d.scratch d.sys.Mna.a d.sys.Mna.b with
    | () -> d.solves <- d.solves + 1
    | exception Lu.Singular row -> raise (Singular row)
  end
  | S s -> begin
    match Sparse.factor_solve s.sp with
    | () -> ()
    | exception Sparse.Singular i -> raise (Singular i)
  end

let solution = function D d -> d.sys.Mna.b | S s -> Sparse.rhs s.sp

(* Report work done since the previous flush.  Counter names are
   per-backend so a mixed campaign (dense nominal circuit, sparse
   synthesized one) keeps the two books separate in [--metrics]. *)
let flush_stats t obs =
  if Obs.enabled obs then begin
    match t with
    | D d ->
      let ds = d.solves - d.reported_solves in
      if ds > 0 then begin
        d.reported_solves <- d.solves;
        Obs.count obs "solver.dense.factor_solve" ds
      end
    | S s ->
      let full, refactor, solve, symbolic, repivot = Sparse.stats s.sp in
      let emit name now prev = if now - prev > 0 then Obs.count obs name (now - prev) in
      emit "solver.sparse.full_factor" full s.r_full;
      emit "solver.sparse.refactor" refactor s.r_refactor;
      emit "solver.sparse.solve" solve s.r_solve;
      emit "solver.sparse.symbolic" symbolic s.r_symbolic;
      emit "solver.sparse.repivot" repivot s.r_repivot;
      if solve > s.r_solve then begin
        let nnz = Sparse.nnz s.sp and fnnz = Sparse.factor_nnz s.sp in
        Obs.sample obs "solver.sparse.nnz" (float_of_int nnz);
        Obs.sample obs "solver.sparse.factor_nnz" (float_of_int fnnz);
        Obs.sample obs "solver.sparse.fill_in" (float_of_int (max 0 (fnnz - nnz)))
      end;
      s.r_full <- full;
      s.r_refactor <- refactor;
      s.r_solve <- solve;
      s.r_symbolic <- symbolic;
      s.r_repivot <- repivot
  end
