(* A uniform bucket grid.  Cell coordinates come from one monotone
   mapping (offset from the bounding box, divided by the cell side,
   clamped to the grid), applied with closed ranges to both the indexed
   shapes and the query, so every shape that touches the query - even
   only along an edge - shares at least one cell with it. *)

type t = {
  rects : Rect.t array;
  ox : int;
  oy : int;
  cell : int;
  nx : int;
  ny : int;
  buckets : int array array;  (* cell (cy * nx + cx) -> ascending indices *)
  lo_x : int array;  (* each shape's first cell column and row *)
  lo_y : int array;
}

(* The cell holding coordinate [v] along one axis. *)
let cell_of ~origin ~cell ~cells v = Int.max 0 (Int.min (cells - 1) ((v - origin) / cell))

let col t x = cell_of ~origin:t.ox ~cell:t.cell ~cells:t.nx x

let row t y = cell_of ~origin:t.oy ~cell:t.cell ~cells:t.ny y

(* Cells sized to the average shape, so a typical shape spans a few
   cells; doubled until the grid has at most a few cells per shape, so
   sparse layouts (small shapes far apart) stay small too. *)
let cell_side ~n ~avg ~w ~h =
  let limit = (4 * n) + 16 in
  let rec grow cell =
    if ((w / cell) + 1) * ((h / cell) + 1) > limit then grow (2 * cell) else cell
  in
  grow (Int.max 1 avg)

let create rects =
  let n = Array.length rects in
  let x0 = ref max_int and y0 = ref max_int and x1 = ref min_int and y1 = ref min_int in
  let extent = ref 0 in
  Array.iter
    (fun (r : Rect.t) ->
      x0 := Int.min !x0 r.x0;
      y0 := Int.min !y0 r.y0;
      x1 := Int.max !x1 r.x1;
      y1 := Int.max !y1 r.y1;
      extent := !extent + Int.max (Rect.width r) (Rect.height r))
    rects;
  let ox, oy, w, h = if n = 0 then (0, 0, 0, 0) else (!x0, !y0, !x1 - !x0, !y1 - !y0) in
  let cell = if n = 0 then 1 else cell_side ~n ~avg:(!extent / n) ~w ~h in
  let nx = (w / cell) + 1 and ny = (h / cell) + 1 in
  let col = cell_of ~origin:ox ~cell ~cells:nx and row = cell_of ~origin:oy ~cell ~cells:ny in
  let lo_x = Array.map (fun (r : Rect.t) -> col r.x0) rects
  and lo_y = Array.map (fun (r : Rect.t) -> row r.y0) rects in
  let iter_cells i f =
    let r = rects.(i) in
    for cy = lo_y.(i) to row r.Rect.y1 do
      for cx = lo_x.(i) to col r.Rect.x1 do
        f ((cy * nx) + cx)
      done
    done
  in
  (* Two passes - count, then fill in ascending shape order - so every
     bucket is a flat array already sorted by index. *)
  let fill = Array.make (nx * ny) 0 in
  for i = 0 to n - 1 do
    iter_cells i (fun c -> fill.(c) <- fill.(c) + 1)
  done;
  let buckets = Array.map (fun k -> Array.make k 0) fill in
  Array.fill fill 0 (Array.length fill) 0;
  for i = 0 to n - 1 do
    iter_cells i (fun c ->
        buckets.(c).(fill.(c)) <- i;
        fill.(c) <- fill.(c) + 1)
  done;
  { rects; ox; oy; cell; nx; ny; buckets; lo_x; lo_y }

let touching t (q : Rect.t) =
  let cx0 = col t q.x0 and cx1 = col t q.x1 in
  let cy0 = row t q.y0 and cy1 = row t q.y1 in
  let acc = ref [] in
  if cx0 = cx1 && cy0 = cy1 then begin
    (* One cell: its bucket is already in ascending order. *)
    let b = t.buckets.((cy0 * t.nx) + cx0) in
    for k = Array.length b - 1 downto 0 do
      if Rect.touches t.rects.(b.(k)) q then acc := b.(k) :: !acc
    done;
    !acc
  end
  else begin
    for cy = cy0 to cy1 do
      for cx = cx0 to cx1 do
        let b = t.buckets.((cy * t.nx) + cx) in
        for k = 0 to Array.length b - 1 do
          let i = b.(k) in
          (* A shape spanning several cells of the query is reported
             from one of them only: the lowest cell the two share. *)
          if
            Int.max t.lo_x.(i) cx0 = cx
            && Int.max t.lo_y.(i) cy0 = cy
            && Rect.touches t.rects.(i) q
          then acc := i :: !acc
        done
      done
    done;
    List.sort Int.compare !acc
  end
