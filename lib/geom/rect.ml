type t = { x0 : int; y0 : int; x1 : int; y1 : int }

let make x0 y0 x1 y1 =
  { x0 = min x0 x1; y0 = min y0 y1; x1 = max x0 x1; y1 = max y0 y1 }

let of_corners (p : Point.t) (q : Point.t) = make p.x p.y q.x q.y

let of_center ~cx ~cy ~w ~h =
  assert (w >= 0 && h >= 0);
  make (cx - (w / 2)) (cy - (h / 2)) (cx - (w / 2) + w) (cy - (h / 2) + h)

let width r = r.x1 - r.x0

let height r = r.y1 - r.y0

let area r = width r * height r

let is_degenerate r = r.x0 = r.x1 || r.y0 = r.y1

let x_span r = Interval.make r.x0 r.x1

let y_span r = Interval.make r.y0 r.y1

let center r = Point.make ((r.x0 + r.x1) / 2) ((r.y0 + r.y1) / 2)

let inter a b =
  let x0 = Int.max a.x0 b.x0
  and y0 = Int.max a.y0 b.y0
  and x1 = Int.min a.x1 b.x1
  and y1 = Int.min a.y1 b.y1 in
  if x0 <= x1 && y0 <= y1 then Some { x0; y0; x1; y1 } else None

let overlaps a b =
  Int.min a.x1 b.x1 > Int.max a.x0 b.x0 && Int.min a.y1 b.y1 > Int.max a.y0 b.y0

let touches a b =
  Int.min a.x1 b.x1 >= Int.max a.x0 b.x0 && Int.min a.y1 b.y1 >= Int.max a.y0 b.y0

let contains_point r (p : Point.t) =
  r.x0 <= p.x && p.x <= r.x1 && r.y0 <= p.y && p.y <= r.y1

let contains a b = a.x0 <= b.x0 && a.y0 <= b.y0 && b.x1 <= a.x1 && b.y1 <= a.y1

let expand r d =
  let x0 = r.x0 - d and x1 = r.x1 + d and y0 = r.y0 - d and y1 = r.y1 + d in
  if x0 <= x1 && y0 <= y1 then { x0; y0; x1; y1 }
  else
    let c = center r in
    { x0 = c.x; y0 = c.y; x1 = c.x; y1 = c.y }

let translate r (p : Point.t) =
  { x0 = r.x0 + p.x; y0 = r.y0 + p.y; x1 = r.x1 + p.x; y1 = r.y1 + p.y }

let hull a b =
  { x0 = min a.x0 b.x0;
    y0 = min a.y0 b.y0;
    x1 = max a.x1 b.x1;
    y1 = max a.y1 b.y1 }

let gap a b =
  let dx = max 0 (max a.x0 b.x0 - min a.x1 b.x1)
  and dy = max 0 (max a.y0 b.y0 - min a.y1 b.y1) in
  (dx, dy)

let facing a b =
  let dx, dy = gap a b in
  if dx = 0 && dy = 0 then None
  else if dx > 0 && dy = 0 then
    let l = Interval.overlap (y_span a) (y_span b) in
    if l > 0 then Some (dx, l) else None
  else if dy > 0 && dx = 0 then
    let l = Interval.overlap (x_span a) (x_span b) in
    if l > 0 then Some (dy, l) else None
  else None

(* Subtraction peels at most four disjoint slabs off [a]: full-width bands
   above and below [b], then left/right slabs of the remaining middle band. *)
let subtract a b =
  match inter a b with
  | None -> [ a ]
  | Some i ->
    if contains i a then []
    else
      let pieces = ref [] in
      let push x0 y0 x1 y1 =
        if x1 > x0 && y1 > y0 then pieces := { x0; y0; x1; y1 } :: !pieces
      in
      push a.x0 a.y0 a.x1 i.y0;
      push a.x0 i.y1 a.x1 a.y1;
      push a.x0 i.y0 i.x0 i.y1;
      push i.x1 i.y0 a.x1 i.y1;
      !pieces

let equal a b = a.x0 = b.x0 && a.y0 = b.y0 && a.x1 = b.x1 && a.y1 = b.y1

let compare a b = Stdlib.compare (a.x0, a.y0, a.x1, a.y1) (b.x0, b.y0, b.x1, b.y1)

let pp ppf r = Format.fprintf ppf "[%d,%d..%d,%d]" r.x0 r.y0 r.x1 r.y1

let to_string r = Format.asprintf "%a" pp r
