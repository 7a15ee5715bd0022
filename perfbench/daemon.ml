(* daemon_roundtrip: anafaultd is started once per run and driven over
   its wire protocol (newline-delimited JSON on a Unix socket) by one
   client connection.  Each op submits a grid campaign in a fault order
   no earlier op used - so its fingerprint is new and the daemon
   simulates, fsyncs its write-ahead queue and journal and stores the
   result - waits for "finished", then submits the same spec again and
   receives the cache hit.  The hit must carry cache_hit and the cold
   result; the daemon's stats counters must equal the ops sent. *)

open Anafault

type conn = { ic : in_channel; oc : out_channel }

type daemon = { pid : int; conn : conn }

let send c json =
  output_string c.oc (Obs.Json.to_string json);
  output_char c.oc '\n';
  flush c.oc

let recv c =
  match Obs.Json.of_string (input_line c.ic) with
  | Ok j -> j
  | Error e -> failwith ("daemon answer: " ^ e)

let request c cmd =
  send c (Obs.Json.Obj [ ("cmd", Obs.Json.String cmd) ]);
  recv c

let field name = function
  | Obs.Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

(* Connect to the daemon's socket, retrying while it is still binding. *)
let connect ~pid sock =
  let deadline = Measure.now () +. 30. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if Measure.now () > deadline || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0
      then failwith "anafaultd did not come up";
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* Start anafaultd over [dir] and wait until it answers a ping.  The
   socket path is relative (to the working directory both processes
   share), which keeps it under the Unix-socket path limit. *)
let start (ctx : Measure.ctx) dir =
  let sock = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process ctx.daemon_exe
      [| ctx.daemon_exe; "--socket"; sock; "--work-dir"; Filename.concat dir "work" |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  try
    let d = { pid; conn = connect ~pid sock } in
    if field "ok" (request d.conn "ping") <> Some (Obs.Json.Bool true) then
      failwith "anafaultd did not answer ping";
    d
  with e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

(* Ask the daemon to shut down and wait for it; kill it if it lingers. *)
let stop d =
  (try ignore (request d.conn "shutdown") with _ -> ());
  close_out_noerr d.conn.oc;
  let deadline = Measure.now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Measure.now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ()

type answer = {
  result : Campaign.result;
  accepted : float option;  (** seconds from submit to "accepted" *)
  total : float;  (** seconds from submit to "finished" *)
  hit : bool;  (** a cache_hit event arrived *)
}

let submit c ~faults spec =
  let t0 = Measure.now () in
  send c
    (Obs.Json.Obj
       [ ("cmd", Obs.Json.String "submit"); ("spec", Campaign.spec_to_json spec) ]);
  let rec read accepted hit =
    let json = recv c in
    if field "event" json = Some (Obs.Json.String "rejected") then
      Error ("rejected: " ^ Obs.Json.to_string json)
    else
      match Campaign.event_of_json ~faults json with
      | Error e -> Error e
      | Ok (Campaign.Accepted _) -> read (Some (Measure.now () -. t0)) hit
      | Ok (Campaign.Cache_hit _) -> read accepted true
      | Ok (Campaign.Finished result) ->
        Ok { result; accepted; total = Measure.now () -. t0; hit }
      | Ok (Campaign.Failed { message }) -> Error ("failed: " ^ message)
      | Ok (Campaign.Cancelled { reason; _ }) -> Error ("cancelled: " ^ reason)
      | Ok (Campaign.Progress _ | Sharded _ | Shard_restarted _ | Shard_lost _) ->
        read accepted hit
  in
  read None false

let run (ctx : Measure.ctx) =
  let rows, n = if ctx.smoke then (3, 6) else (10, 24) in
  let dir = Filename.concat ctx.work "daemon" in
  (* Set-up is the inputs and a daemon answering over a fresh
     directory.  The daemon the ops use is started once; between ops
     another is started in a second directory and stopped again. *)
  let setup dir () =
    Measure.fresh_dir dir;
    let deck, universe = Campaigns.grid_deck ~rows ~cols:rows in
    ((deck, List.filteri (fun i _ -> i < n) universe), start ctx dir)
  in
  let setups = ref [] in
  let (deck, faults), d = Measure.timed_setup setups (setup dir) in
  let spare = Filename.concat ctx.work "spare" in
  let between =
    Measure.resetup ~discard:(fun (_, spare) -> stop spare) setups (setup spare)
  in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let options = Campaigns.options_of_text Campaigns.grid_options in
  let rng = Random.State.make [| ctx.seed |] in
  let used = Hashtbl.create 256 in
  (* A fault order no earlier op used: a new campaign fingerprint. *)
  let rec fresh_order () =
    let order = Measure.shuffle rng faults in
    let text = Faults.Fault_list.to_string order in
    if Hashtbl.mem used text then fresh_order ()
    else begin
      Hashtbl.add used text ();
      (order, text)
    end
  in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let attempted = ref 0 and failed = ref 0 in
  let first_csv = ref None in
  let per_op = ref [] and colds = ref [] and hits = ref [] in
  let op ~traced i =
    let order, text = fresh_order () in
    let spec = { Campaign.deck; observed = None; faults = text; options } in
    let faults = Array.of_list order in
    let sink = if traced then Obs.memory () else Obs.null in
    let call name = Obs.span sink ("perfbench." ^ name) (fun _ -> submit d.conn ~faults spec) in
    let cold = call "submit" in
    let hit = call "hit" in
    ignore (Obs.drain sink);
    attempted := !attempted + 2;
    let ok what = function
      | Ok a -> Some a
      | Error e ->
        incr failed;
        fail "op %d %s: %s" i what e;
        None
    in
    (match (ok "submit" cold, ok "hit" hit) with
    | Some c, Some h ->
      let checks_before = List.length !errors in
      let csv = Campaigns.sorted_csv c.result in
      (match !first_csv with
      | None -> first_csv := Some csv
      | Some f when String.equal f csv -> ()
      | Some _ -> fail "op %d: detection CSV differs from op 0" i);
      if c.hit || c.result.cached then fail "op %d: a new campaign was served from the cache" i;
      if not (h.hit && h.result.cached) then fail "op %d: the resubmission missed the cache" i;
      if
        not
          (String.equal
             (Report.csv_of_results c.result.results)
             (Report.csv_of_results h.result.results))
      then fail "op %d: the cache hit's result differs from the cold one" i;
      if List.length !errors > checks_before then incr failed;
      colds := c.total :: !colds;
      hits := h.total :: !hits;
      per_op :=
        (("anafaultd.overhead_s", c.total -. c.result.wall_seconds)
        ::
        (match c.accepted with
        | Some a -> [ ("anafaultd.accept_s", a); ("anafaultd.run_s", c.total -. a) ]
        | None -> []))
        :: !per_op;
      c.total +. h.total
    | _ -> 0.)
  in
  let plain, traced = Measure.ops ~between ctx op in
  let ops = List.length plain + List.length traced in
  let stats = request d.conn "stats" in
  let counter name =
    match field name stats with Some (Obs.Json.Int k) -> k | _ -> -1
  in
  List.iter
    (fun (name, want) ->
      if counter name <> want then
        fail "stats %s = %d, want %d" name (counter name) want)
    [ ("jobs", ops); ("cache_hits", ops); ("faults_simulated", n * ops) ];
  let pct, tail = Measure.tail !hits in
  {
    Measure.attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
    setup_s = Measure.median !setups;
    plain;
    traced;
    peak_rss_mb = Measure.peak_rss_mb (string_of_int d.pid);
    figures =
      [ ("submit_s", "s", Measure.median !colds); ("hit_s", "s", Measure.median !hits) ];
    layers =
      (if not ctx.trace then []
       else
         [ ("anafaultd.submit_s", Measure.median !colds);
           ("anafaultd.hit_s", Measure.median !hits) ]
         @ Measure.medians (List.rev !per_op)
         @ [
             ("anafaultd.hit_tail_s", tail);
             ("anafaultd.hit_tail_pct", float_of_int pct);
             ("anafaultd.jobs", float_of_int (counter "jobs"));
             ("anafaultd.cache_hits", float_of_int (counter "cache_hits"));
             ("anafaultd.faults_simulated", float_of_int (counter "faults_simulated"));
           ]);
  }

let layers =
  [
    ("anafaultd.submit_s", "s");
    ("anafaultd.hit_s", "s");
    ("anafaultd.overhead_s", "s");
    ("anafaultd.accept_s", "s");
    ("anafaultd.run_s", "s");
    ("anafaultd.hit_tail_s", "s");
    ("anafaultd.hit_tail_pct", "%");
    ("anafaultd.jobs", "count");
    ("anafaultd.cache_hits", "count");
    ("anafaultd.faults_simulated", "count");
  ]
