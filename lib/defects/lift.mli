(** LIFT: Layout-Induced Fault exTraction (the paper's GLRFM, after
    inductive fault analysis).

    From an extracted layout and the technology's defect statistics, LIFT
    produces the list of realistic faults - each a {!Faults.Fault.t} with
    its probability of occurrence [p_j = d_rel * D0 * A_crit], ready for
    AnaFAULT. *)

type options = {
  pdf : Geom.Critical_area.size_pdf option;
      (** defect-size density; [None] uses the technology's 1/x^3 model *)
  p_min : float;
      (** faults less likely than this are dropped (the paper reports
          p_j between 1e-7 and 1e-9; default 3e-8, calibrated so the
          demo VCO reproduces the paper's ~53 % list reduction) *)
  merge_equivalent : bool;
      (** merge faults with identical electrical effect, summing their
          probabilities (default true).  Equivalence is on the canonical
          kind only ({!Faults.Fault.canonical}): a bridge's endpoints and a
          break's moved terminals are unordered, and the mechanism is
          ignored.  The merged fault takes the first candidate's place in
          the list and keeps its mechanism and note. *)
}

val default_options : options

(** Counts per fault class, mirroring the paper's "55 bridging, 8 line
    opens and 7 transistor stuck open". *)
type classes = {
  bridging : int;
  line_opens : int;
  contact_opens : int;
  stuck_opens : int;
}

val total : classes -> int

type result = {
  faults : Faults.Fault.t list;  (** in enumeration order, ids ["#1"].. *)
  classes : classes;
  sites_considered : int;  (** before thresholding and merging *)
}

(** [run ?options ext] performs the extraction. *)
val run : ?options:options -> Extract.Extraction.t -> result

(** [ranked r] is [r.faults] under a documented total order: probability
    descending, ties broken by fault class (bridges, breaks, stuck-opens)
    and then by numeric site id - byte-stable across runs, domain counts
    and enumeration strategies. *)
val ranked : result -> Faults.Fault.t list

(** {1 Staged entry points}

    The two halves of {!run}, split so the incremental {!Pipeline} can
    substitute its own (cached, per-tile) site enumeration: [cands_of]
    prices enumerated sites into fault candidates, [finalise] merges,
    thresholds and assigns ids.  [run options ext] is
    [finalise options (cands_of ext ~bridges:... )] over the serial
    {!Sites} enumerators.  Candidate order decides fault ids: callers
    must pass the site lists in the enumerators' canonical orders. *)

(** A candidate fault before id assignment. *)
type cand = {
  kind : Faults.Fault.kind;
  mechanism : string;
  prob : float;
  note : string;
}

val cands_of :
  Extract.Extraction.t ->
  bridges:Sites.bridge_site list ->
  opens:Sites.open_site list ->
  cut_opens:Sites.cut_open_site list ->
  stuck:Sites.stuck_site list ->
  cand list

val finalise : options -> cand list -> result

(** [probability tech mech ca_nm2] is [d_rel * D0 * A_crit] in defects
    per die. *)
val probability : Layout.Tech.t -> Layout.Tech.mechanism -> float -> float

val classify : Faults.Fault.t list -> classes

val pp_classes : Format.formatter -> classes -> unit

(** A one-line-per-fault report, most probable first. *)
val pp_report : Format.formatter -> result -> unit
