(** The pluggable linear-solver layer of the MNA core.

    A solver value owns all storage for one circuit topology's linear
    systems: [Engine] drives the
    {!begin_stamp}/{!add}/{!finish}/{!factor_solve} lifecycle on every
    Newton iteration and reads the result through {!solution}, never
    touching a concrete matrix representation.

    Two backends exist.  [Dense] wraps the seed path ({!Mna.system} plus
    {!Lu} scratch) and executes the identical float operations in the
    identical order, so it reproduces seed results bit for bit.
    [Sparse] compiles the accumulated stamp pattern into compressed form
    once per topology and afterwards refactorises numerically with a
    frozen pivot order (see {!Sparse}); fault patches stamp into a
    pattern superset, so a whole campaign shares one symbolic analysis.
    [Auto] resolves to one of the two at {!create} time by comparing the
    capacity against {!auto_threshold}. *)

type backend = Auto | Dense | Sparse

(** [Auto] capacity cutoff: below it dense wins, at or above it sparse
    does. *)
val auto_threshold : int

(** ["auto"], ["dense"] or ["sparse"]. *)
val backend_to_string : backend -> string

(** Inverse of {!backend_to_string}; [Error] explains the choices. *)
val backend_of_string : string -> (backend, string) result

exception Singular of int
(** The system has no usable pivot; the payload is the index of the
    offending unknown in the caller's (original MNA) numbering, ready
    for {!Mna.unknown_name}. *)

type t

(** [create backend ~capacity] allocates a solver for systems of up to
    [capacity] unknowns.  [Auto] resolves here, against [capacity]. *)
val create : backend -> capacity:int -> t

(** The resolved backend (never [Auto]). *)
val backend : t -> backend

val capacity : t -> int

(** [begin_stamp t ~n] opens a stamping pass for an [n]-unknown system,
    clearing the previous values. *)
val begin_stamp : t -> n:int -> unit

(** [add t i j v] accumulates [v] at matrix position [(i, j)]; no-op
    when either index is [-1] (ground). *)
val add : t -> int -> int -> float -> unit

(** [add_rhs t i v] accumulates [v] into right-hand-side row [i]. *)
val add_rhs : t -> int -> float -> unit

(** [add_conductance t i j g] stamps conductance [g] between unknowns
    [i] and [j] (either may be ground). *)
val add_conductance : t -> int -> int -> float -> unit

(** [add_current t i x] adds current [x] flowing {e into} node [i]. *)
val add_current : t -> int -> float -> unit

(** Seals the stamping pass (pattern compilation on the sparse path). *)
val finish : t -> unit

(** Factors the stamped system and leaves the solution in {!solution}.
    Raises {!Singular} when the matrix has no usable pivot. *)
val factor_solve : t -> unit

(** The buffer holding the right-hand side during stamping and the
    solution after {!factor_solve} (leading [n] entries). *)
val solution : t -> float array

(** [flush_stats t obs] emits the work done since the previous flush as
    per-backend counters ([solver.dense.factor_solve];
    [solver.sparse.full_factor]/[refactor]/[solve]/[symbolic]/[repivot]
    plus [nnz]/[factor_nnz]/[fill_in] samples).  Free under a null
    sink. *)
val flush_stats : t -> Obs.sink -> unit
