(* Work-stealing parallel fault simulation on OCaml 5 domains.

   Per-fault Newton costs vary wildly (a stuck-open fault converges far
   slower than a low-ohmic bridge), so instead of static chunking every
   domain pulls the next fault index from a shared atomic counter and
   simulates it through Simulate.run_one_in, the serial loop's per-fault
   path (fault dropping included).  Each domain owns one engine session
   (sessions are single-threaded), writes results into its own slots of
   a shared buffer, and keeps its own load counters.  A fault
   whose simulation raises is recorded as Sim_failed through
   Simulate.guard, so one bad fault never aborts the run; a domain that
   dies outright (e.g. session setup fails) marks the fault it had
   claimed with a typed failure and reports itself in [died], so the
   campaign can never silently succeed with holes. *)

type domain_stats = {
  domain : int;
  faults_done : int;
  fault_indices : int list;
  newton_iterations : int;
  busy_seconds : float;
  steal_seconds : float;
  died : bool;
}

(* Test hook: when it returns true for a domain index, that domain's
   session setup raises - the only way to exercise the domain-death path
   deterministically. *)
let chaos_session_failure : (int -> bool) ref = ref (fun _ -> false)

let worker ~config ~circuit ~nominal ~faults ~next ~results ~journal
    ~completed ~progress ~progress_lock ~abort ~stop ~total d () =
  let obs = config.Simulate.obs in
  let t0 = Unix.gettimeofday () in
  let ndone = ref 0 and iters = ref 0 and indices = ref [] in
  let steal_acc = ref 0.0 in
  let died = ref false in
  let n = Array.length faults in
  (* Any domain may drive the progress callback; the CAS lock keeps it
     single-flight, and the completed counter is read inside the locked
     region, so consecutive callbacks see non-decreasing counts.  A
     callback that raises (the CLI's abort knob) stops every domain; the
     exception is re-raised by [run_with_stats] after the join. *)
  let report () =
    match progress with
    | None -> ()
    | Some f ->
      if Atomic.compare_and_set progress_lock false true then begin
        (match f (Atomic.get completed) total with
        | () -> ()
        | exception exn ->
          ignore (Atomic.compare_and_set abort None (Some exn));
          Atomic.set stop true);
        Atomic.set progress_lock false
      end
  in
  (* The domain is dying: give the fault it claimed but did not finish
     (if any) a typed failure (never a silent hole), count the death, and
     stop stealing.  Unclaimed faults drain through the other domains. *)
  let mark_died claimed exn =
    died := true;
    Obs.count obs "parsim.domain_died" 1;
    let detail = Printf.sprintf "domain %d died: %s" d (Printexc.to_string exn) in
    Option.iter
      (fun i ->
        if results.(i) = None then begin
          results.(i) <-
            Some
              {
                Simulate.fault = faults.(i);
                outcome = Simulate.Sim_failed (Simulate.Crashed detail);
                attempts = [];
                stats = Simulate.zero_stats;
                cpu_seconds = 0.0;
              };
          ignore (Atomic.fetch_and_add completed 1)
        end)
      claimed;
    report ()
  in
  (match
     if !chaos_session_failure d then
       failwith "chaos: injected session-setup failure";
     Simulate.session config circuit
   with
  | exception exn -> mark_died None exn
  | session ->
    let sess = ref session in
    let cancel = config.Simulate.sim_options.Sim.Engine.cancel in
    let rec steal () =
      (* A cancelled token stops the domain claiming new faults; the
         fault in flight drains through the engine's own polls, so the
         domain exits cleanly instead of via an abort exception. *)
      if (not (Atomic.get stop)) && not (Cancel.cancelled cancel) then begin
        let t_steal = Unix.gettimeofday () in
        let i = Atomic.fetch_and_add next 1 in
        let dt = Unix.gettimeofday () -. t_steal in
        (* Every steal is accounted, including the final unsuccessful
           one: the scheduler's overhead does not vanish at the end of
           the list. *)
        steal_acc := !steal_acc +. dt;
        Obs.sample obs "parsim.steal_seconds" dt;
        if i < n then begin
          match
            (* Journal-restored results were prefilled before the spawn
               and already counted in [completed]; skip those indices. *)
            if results.(i) = None then begin
              let r =
                Simulate.guard faults.(i) (fun () ->
                    Simulate.run_one_in config !sess ~nominal faults.(i))
              in
              results.(i) <- Some r;
              (* Cancelled results never reach the journal: resume must
                 re-run exactly the interrupted faults. *)
              (match r.Simulate.outcome with
              | Simulate.Sim_failed (Simulate.Cancelled _) -> ()
              | Simulate.Sim_failed _ | Simulate.Detected _ | Simulate.Undetected
                ->
                Option.iter (fun j -> Journal.record j i r) journal);
              incr ndone;
              indices := i :: !indices;
              iters := !iters + r.Simulate.stats.Sim.Engine.newton_iterations;
              ignore (Atomic.fetch_and_add completed 1);
              report ();
              (* Quarantine, as in the serial loop: a kernel failure may
                 leave device state or an unfinished overlay behind, so
                 the domain's session is rebuilt before the next fault. *)
              match r.Simulate.outcome with
              | Simulate.Sim_failed failure when Outcome.poisons_session failure ->
                Obs.count obs "session.quarantine" 1;
                sess := Simulate.session config circuit
              | Simulate.Sim_failed _ | Simulate.Detected _ | Simulate.Undetected
                ->
                ()
            end
          with
          | () -> steal ()
          | exception exn -> mark_died (Some i) exn
        end
      end
    in
    steal ());
  let busy = Unix.gettimeofday () -. t0 in
  if Obs.enabled obs then
    Obs.sample obs "parsim.domain_busy_seconds" busy
      ~attrs:
        [
          ("worker", Obs.Int d);
          ("faults_done", Obs.Int !ndone);
          ("newton_iterations", Obs.Int !iters);
          ("steal_seconds", Obs.Float !steal_acc);
          ("died", Obs.Bool !died);
        ];
  {
    domain = d;
    faults_done = !ndone;
    fault_indices = List.rev !indices;
    newton_iterations = !iters;
    busy_seconds = busy;
    steal_seconds = !steal_acc;
    died = !died;
  }

let run_with_stats ?progress ?journal ?(clamp = true) ~domains config
    circuit faults =
  let domains =
    if clamp then max 1 (min domains (Domain.recommended_domain_count ()))
    else max 1 domains
  in
  Obs.span config.Simulate.obs "anafault.batch"
    ~attrs:
      [ ("faults", Obs.Int (List.length faults)); ("domains", Obs.Int domains) ]
    (fun _ ->
      let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
      let nominal, nominal_stats = Simulate.nominal config circuit in
      let faults_arr = Array.of_list faults in
      let n = Array.length faults_arr in
      let results = Array.make n None in
      (* Prefill journal-restored results so no domain re-simulates a
         completed fault. *)
      let restored = ref 0 in
      (match journal with
      | Some j ->
        Array.iteri
          (fun i fault ->
            match Journal.find j i fault with
            | Some r ->
              results.(i) <- Some r;
              incr restored;
              Obs.count config.Simulate.obs "journal.skipped" 1
            | None -> ())
          faults_arr
      | None -> ());
      let next = Atomic.make 0 in
      let completed = Atomic.make !restored in
      let progress_lock = Atomic.make false in
      let abort = Atomic.make None in
      let stop = Atomic.make false in
      let work =
        worker ~config ~circuit ~nominal ~faults:faults_arr ~next
          ~results ~journal ~completed ~progress ~progress_lock ~abort ~stop
          ~total:n
      in
      let spawned = List.init (domains - 1) (fun d -> Domain.spawn (work (d + 1))) in
      let mine = work 0 () in
      let stats = mine :: List.map Domain.join spawned in
      (* An aborting progress callback (the CLI's --abort-after) stopped
         every domain; surface it to the caller exactly as the serial
         loop would have. *)
      (match Atomic.get abort with
      | Some exn -> raise exn
      | None ->
        (* Workers only see the counter after their own faults; guarantee
           the caller one final (total, total) call once everyone
           joined. *)
        (match progress with Some f when n > 0 -> f n n | Some _ | None -> ()));
      let unclaimed_failure =
        (* Holes after the join are typed by why the run stopped early:
           a cancelled campaign leaves [Cancelled] faults (which resume
           re-runs), an all-domains-dead run leaves [Crashed] ones. *)
        match Cancel.get config.Simulate.sim_options.Sim.Engine.cancel with
        | Some reason ->
          Simulate.Cancelled (Cancel.reason_to_string reason)
        | None -> Simulate.Crashed "no domain simulated this fault"
      in
      let results =
        Array.to_list
          (Array.mapi
             (fun i r ->
               match r with
               | Some r -> r
               | None ->
                 {
                   Simulate.fault = faults_arr.(i);
                   outcome = Simulate.Sim_failed unclaimed_failure;
                   attempts = [];
                   stats = Simulate.zero_stats;
                   cpu_seconds = 0.0;
                 })
             results)
      in
      ( {
          Simulate.config;
          nominal;
          nominal_stats;
          results;
          wall_seconds = Unix.gettimeofday () -. wall0;
          cpu_seconds = Sys.time () -. cpu0;
        },
        List.sort (fun a b -> Int.compare a.domain b.domain) stats ))

let run ?clamp ~domains config circuit faults =
  fst (run_with_stats ?clamp ~domains config circuit faults)

let execute ?progress ?journal ?clamp ?domains config circuit faults =
  let domains = Option.value ~default:config.Simulate.domains domains in
  if domains <= 1 then (Simulate.run ?progress ?journal config circuit faults, [])
  else run_with_stats ?progress ?journal ?clamp ~domains config circuit faults
