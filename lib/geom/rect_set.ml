(* Union area by scanline over compressed x-coordinates: for each vertical
   slab between consecutive distinct x-edges, merge the y-intervals of the
   rectangles spanning the slab and accumulate slab-width * covered-height. *)
let union_area rs =
  let rs = List.filter (fun r -> not (Rect.is_degenerate r)) rs in
  match rs with
  | [] -> 0
  | _ ->
    let xs =
      List.concat_map (fun (r : Rect.t) -> [ r.x0; r.x1 ]) rs
      |> List.sort_uniq Int.compare
      |> Array.of_list
    in
    let total = ref 0 in
    for i = 0 to Array.length xs - 2 do
      let xl = xs.(i) and xr = xs.(i + 1) in
      let spans =
        List.filter_map
          (fun (r : Rect.t) ->
            if r.x0 <= xl && xr <= r.x1 then Some (r.y0, r.y1) else None)
          rs
        |> List.sort compare
      in
      let covered = ref 0 and cur = ref None in
      let flush () =
        match !cur with
        | None -> ()
        | Some (lo, hi) ->
          covered := !covered + (hi - lo);
          cur := None
      in
      List.iter
        (fun (lo, hi) ->
          match !cur with
          | None -> cur := Some (lo, hi)
          | Some (clo, chi) ->
            if lo <= chi then cur := Some (clo, max chi hi)
            else begin
              flush ();
              cur := Some (lo, hi)
            end)
        spans;
      flush ();
      total := !total + ((xr - xl) * !covered)
    done;
    !total

(* Tile-clipped union area: clip first so the scanline only compresses
   the coordinates inside the window (what a per-tile stage sees). *)
let union_area_in ~clip rs =
  union_area
    (List.filter_map
       (fun r ->
         match Rect.inter r clip with
         | Some i when not (Rect.is_degenerate i) -> Some i
         | Some _ | None -> None)
       rs)

let subtract rs cut = List.concat_map (fun r -> Rect.subtract r cut) rs

let subtract_all rs cuts = List.fold_left subtract rs cuts

let inter_with rs clip =
  List.filter_map
    (fun r ->
      match Rect.inter r clip with
      | Some i when not (Rect.is_degenerate i) -> Some i
      | Some _ | None -> None)
    rs

(* Pairs [(i, j)], [i < j], whose rectangles come within [margin] of
   each other (each grown by [margin] touches the other), kept when
   [keep i j] says so.  Each query returns ascending [j]; walking [i]
   downwards and prepending leaves the list sorted. *)
let pairs_within ~margin rs keep =
  let n = Array.length rs in
  if n < 2 then []
  else begin
    let index = Grid_index.create rs in
    let acc = ref [] in
    for i = n - 1 downto 0 do
      acc :=
        List.fold_right
          (fun j acc ->
            if j <= i then acc
            else match keep i j with Some p -> p :: acc | None -> acc)
          (Grid_index.touching index (Rect.expand rs.(i) margin))
          !acc
    done;
    !acc
  end

let touching_pairs rs = pairs_within ~margin:0 rs (fun i j -> Some (i, j))

let components rs =
  let n = Array.length rs in
  let uf = Union_find.create n in
  List.iter
    (fun (i, j) -> ignore (Union_find.union uf i j))
    (touching_pairs rs);
  let comp = Array.make n (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let r = Union_find.find uf i in
    if comp.(r) = -1 then begin
      comp.(r) <- !next;
      incr next
    end;
    comp.(i) <- comp.(r)
  done;
  (comp, !next)

let close_pairs ~within rs =
  pairs_within ~margin:within rs (fun i j ->
      match Rect.facing rs.(i) rs.(j) with
      | Some (spacing, length) when spacing <= within -> Some (i, j, spacing, length)
      | Some _ | None -> None)

let bounding_box = function
  | [] -> invalid_arg "Rect_set.bounding_box: empty"
  | r :: rs -> List.fold_left Rect.hull r rs
