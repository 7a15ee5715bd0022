(** Operations on collections of rectangles (one mask layer's shapes).

    Collections are plain lists; the functions here provide the sweep-style
    bulk operations needed by extraction and fault analysis.  The pair
    sweeps query a {!Grid_index}, so only nearby rectangles are tested. *)

(** [union_area rs] is the area of the union of [rs] (overlaps counted
    once), by coordinate-compressed scanline. *)
val union_area : Rect.t list -> int

(** [union_area_in ~clip rs] is the union area of [rs] restricted to the
    [clip] window: rectangles are clipped first, so the scanline works on
    window-local coordinates (the per-tile form of {!union_area};
    summing it over the cells of a partition of the plane equals the
    global union area). *)
val union_area_in : clip:Rect.t -> Rect.t list -> int

(** [subtract rs cut] removes [cut] from every rectangle of [rs]. *)
val subtract : Rect.t list -> Rect.t -> Rect.t list

(** [subtract_all rs cuts] removes every rectangle of [cuts] from [rs]. *)
val subtract_all : Rect.t list -> Rect.t list -> Rect.t list

(** [inter_with rs clip] is the list of non-degenerate intersections of
    members of [rs] with [clip]. *)
val inter_with : Rect.t list -> Rect.t -> Rect.t list

(** [touching_pairs rs] lists the pairs [(i, j)] with [i < j] whose
    rectangles touch or overlap ({!Rect.touches}), in ascending order. *)
val touching_pairs : Rect.t array -> (int * int) list

(** [components rs] groups the indices of [rs] into electrically connected
    components ({!Rect.touches} closure).  Returns an array mapping each
    rectangle index to a component id in [0 .. count-1], and the count. *)
val components : Rect.t array -> int array * int

(** [close_pairs ~within rs] lists the pairs [(i, j, spacing, length)] with
    [i < j] such that rectangles [i] and [j] are disjoint and face each
    other with [0 < spacing <= within] over facing length [length > 0].
    Pairs that touch or overlap are excluded (they are already connected);
    purely diagonal pairs are excluded (negligible bridge critical area).
    The list is in ascending order. *)
val close_pairs : within:int -> Rect.t array -> (int * int * int * int) list

(** [bounding_box rs] is the hull of all rectangles.  Raises [Invalid_argument]
    on the empty list. *)
val bounding_box : Rect.t list -> Rect.t
