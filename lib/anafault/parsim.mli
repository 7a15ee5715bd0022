(** Work-stealing parallel fault simulation on OCaml 5 domains.

    The paper notes AnaFAULT was "improved for parallel execution in a
    workstation cluster environment"; per-fault simulations are
    independent, so the same structure maps onto shared-memory domains.
    Per-fault Newton costs vary wildly (stuck-open faults converge far
    slower than low-ohmic bridges), so the fault list is not chunked
    statically: every domain pulls the next fault index from a shared
    atomic counter until the list is drained, and simulates it with
    {!Simulate.run_one_in} - the serial loop's per-fault path, fault
    dropping included.  Each domain owns one {!Sim.Engine.Session}, so
    the per-topology setup is paid once per domain rather than once per
    fault.

    A fault whose simulation raises is reported as
    {!Simulate.Sim_failed}; the exception never escapes the domain, and
    all other results are returned in input order.  Each domain applies
    the same robustness layers as the serial loop: the retry ladder,
    per-fault budgets, session quarantine after kernel failures, and
    journal skip/record when a {!Journal.t} is supplied.  A domain that
    dies outright (e.g. its session setup fails) records a typed
    [Crashed] failure for the fault it had claimed, is counted as
    ["parsim.domain_died"], and reports itself through
    {!domain_stats.died} - a campaign can never silently succeed with
    holes. *)

(** Per-domain load counters, for judging schedule balance. *)
type domain_stats = {
  domain : int;  (** 0 is the caller's domain *)
  faults_done : int;
  fault_indices : int list;
      (** indices into the input fault list, in completion order *)
  newton_iterations : int;
  busy_seconds : float;  (** wall-clock time the domain spent stealing *)
  steal_seconds : float;
      (** wall-clock time spent pulling faults off the shared counter,
          including the final unsuccessful steal that ends the domain's
          loop - the scheduler's overhead, normally microseconds *)
  died : bool;
      (** the domain aborted (setup failure or an unclassifiable error
          mid-fault); its claimed fault carries a typed failure, and the
          CLI turns any died domain into a nonzero exit *)
}

(** Test hook: when the function returns true for a domain index, that
    domain's session setup raises.  The only way to exercise the
    domain-death path deterministically; leave untouched otherwise. *)
val chaos_session_failure : (int -> bool) ref

(** [run_with_stats ~domains config circuit faults] behaves like
    {!Simulate.run} but distributes the per-fault simulations over
    [domains] domains and also returns the per-domain load, sorted by
    domain index.  With [clamp] (the default) the domain count is
    limited to [Domain.recommended_domain_count]; [~clamp:false] takes
    the request literally, which oversubscribes small machines but keeps
    scheduling behaviour reproducible.  Results keep the input fault
    order.

    [progress] is called with (completed, total): every domain bumps a
    shared atomic completed-counter and any domain may fire the callback
    under a single-flight guard (reads of the counter happen inside the
    guard, so consecutive calls see non-decreasing counts); one final
    (total, total) call is guaranteed after all domains join.  A
    progress callback that raises stops every domain, and the exception
    is re-raised here after the join - the CLI's [--abort-after] knob.
    With [journal], completed faults are prefilled before any domain
    spawns (never re-simulated) and fresh results are recorded as they
    finish, under the journal's internal lock. *)
val run_with_stats :
  ?progress:(int -> int -> unit) ->
  ?journal:Journal.t ->
  ?clamp:bool ->
  domains:int ->
  Simulate.config ->
  Netlist.Circuit.t ->
  Faults.Fault.t list ->
  Simulate.run * domain_stats list

(** [run ~domains config circuit faults] is {!run_with_stats} without the
    load report. *)
val run :
  ?clamp:bool ->
  domains:int ->
  Simulate.config ->
  Netlist.Circuit.t ->
  Faults.Fault.t list ->
  Simulate.run

(** [execute config circuit faults] is the single dispatch point every
    front end uses: serial {!Simulate.run} (with an empty load report)
    for one domain, {!run_with_stats} otherwise.  The domain count comes
    from [config.domains] unless overridden by [?domains].  [?progress]
    and [?journal] apply to both paths; both simulate each fault with
    {!Simulate.run_one_in}, so their results are identical. *)
val execute :
  ?progress:(int -> int -> unit) ->
  ?journal:Journal.t ->
  ?clamp:bool ->
  ?domains:int ->
  Simulate.config ->
  Netlist.Circuit.t ->
  Faults.Fault.t list ->
  Simulate.run * domain_stats list
