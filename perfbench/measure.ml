(* What a workload run is given and what it hands back, plus the
   timing, order statistics, process and file-system measurements the
   workloads share. *)

type ctx = {
  seed : int;
  seconds : float;  (** how long the op loop measures *)
  trace : bool;  (** the per-layer run: every other op is traced *)
  smoke : bool;  (** tiny sizes, for the self-test *)
  work : string;  (** scratch directory inside the checkout *)
  daemon_exe : string;  (** the anafaultd binary *)
}

type product = {
  attempted : int;  (** operations attempted *)
  failed : int;  (** operations failed or refused *)
  errors : string list;  (** failed output checks; empty when correct *)
  setup_s : float;  (** median of the repeated set-ups *)
  plain : float list;  (** seconds of each untraced op *)
  traced : float list;  (** seconds of each traced op *)
  peak_rss_mb : float;
  figures : (string * string * float) list;
      (** the workload's own end-to-end figures: name, unit, value *)
  layers : (string * float) list;  (** per-layer metrics (traced run) *)
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linearly interpolated quantile, [q] in [0, 1]; [nan] when empty. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile 0.5 xs

(* The highest whole percentile with at least ten samples beyond it,
   and its value; the median when there are too few samples for one. *)
let tail xs =
  let n = List.length xs in
  let pct = if n <= 20 then 50 else 100 * (n - 10) / n in
  (pct, quantile (float_of_int pct /. 100.) xs)

let sum xs = List.fold_left ( +. ) 0. xs

(* [timed_setup samples f] runs the set-up [f] from a collected heap
   and records its seconds in [samples]. *)
let timed_setup samples f =
  Gc.full_major ();
  let r, dt = time f in
  samples := dt :: !samples;
  r

(* A [between] hook for {!ops}: re-run the set-up [f] at most once a
   second and hand its result to [discard].  A workload sets up once
   before its ops and again through this hook, so the set-up median
   spans the whole run. *)
let resetup ?(discard = ignore) samples f =
  let last = ref (now ()) in
  fun () ->
    if now () -. !last >= 1. then begin
      discard (timed_setup samples f);
      last := now ()
    end

(* [ops ctx op] calls [op ~traced i] for i = 0, 1, ... while one more
   op, at the median op time so far, still ends within [ctx.seconds] -
   and at least three times; [op] returns its own seconds.  [between]
   runs before every op, outside its timing.  In the traced run every
   odd op is traced.  A full major collection before every op starts
   each one from the same heap state.  Returns the untraced and traced
   op seconds. *)
let ops ?(between = ignore) ctx op =
  let t0 = now () in
  let rec go i plain traced =
    if i >= 3 && now () -. t0 +. median (plain @ traced) > ctx.seconds then
      (List.rev plain, List.rev traced)
    else begin
      between ();
      Gc.full_major ();
      let is_traced = ctx.trace && i mod 2 = 1 in
      let dt = op ~traced:is_traced i in
      if is_traced then go (i + 1) plain (dt :: traced)
      else go (i + 1) (dt :: plain) traced
    end
  in
  go 0 [] []

(* Per-op per-layer observations reduced to one median per name, in
   first-seen order. *)
let medians (per_op : (string * float) list list) =
  let names =
    List.fold_left
      (fun acc obs ->
        List.fold_left
          (fun acc (n, _) -> if List.mem n acc then acc else n :: acc)
          acc obs)
      [] per_op
    |> List.rev
  in
  List.map
    (fun n -> (n, median (List.filter_map (List.assoc_opt n) per_op)))
    names

(* Peak resident set of a process, in MiB, from /proc ("self" or a pid). *)
let peak_rss_mb proc =
  let ic = open_in ("/proc/" ^ proc ^ "/status") in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  scan ()

(* {1 Files} *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path

(* Total bytes of the regular files under [path]. *)
let rec du path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc n -> acc + du (Filename.concat path n))
      0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0

(* {1 Inputs} *)

(* Fisher-Yates over a list, driven by [rng]. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* {1 Telemetry}

   The traced ops pass an [Obs.memory] sink through the programs'
   existing config fields; these read the drained events back. *)

let span_seconds events name =
  List.fold_left
    (fun acc -> function
      | Obs.Span { name = n; dur; _ } when n = name -> acc +. dur
      | _ -> acc)
    0. events

let count_where events keep =
  List.fold_left
    (fun acc -> function
      | Obs.Count { name; n; _ } when keep name -> acc + n
      | _ -> acc)
    0 events

let sample_sum events name =
  List.fold_left
    (fun acc -> function
      | Obs.Sample { name = n; v; _ } when n = name -> acc +. v
      | _ -> acc)
    0. events
