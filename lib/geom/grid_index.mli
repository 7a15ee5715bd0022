(** A uniform bucket grid over a fixed array of rectangles.

    The one spatial index of the geometry layer: extraction (channel
    finding, diffusion splitting, MOS recognition, label lookup) and the
    pair sweeps of {!Rect_set} query it instead of scanning every shape,
    which keeps the whole-layout stages near-linear in the number of
    shapes.  The index is immutable once built, so it may be shared
    between domains. *)

type t

(** [create rs] buckets the rectangles of [rs] (by position: index [i]
    is [rs.(i)]) into square cells sized to the average shape, coarsened
    when needed so the grid never holds many more cells than shapes. *)
val create : Rect.t array -> t

(** [touching t q] lists, in ascending order, the indices [i] with
    [Rect.touches rs.(i) q]: closed, so shapes that only share an edge
    or a corner with [q] are included.  A degenerate [q] is a point or
    segment query ([touches] then means "contains"). *)
val touching : t -> Rect.t -> int list
