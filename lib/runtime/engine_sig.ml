(** The run signature shared by every sequential engine implementation.

    {!Engine.Make} (the classic reference executor) and
    [Flatcore.Engine.Make] (the CSR + arena flat executor) both produce a
    module of this shape, so call sites — witness replays, the serving
    runner, the CLI — can take the engine as a first-class module and stay
    agnostic of which implementation runs.  Both run the same delivery
    loop, {!Engine.Make.deliver} — scheduler pools, delayed copies, every
    copy and vertex fate, hooks, journal and telemetry — and differ only
    in the edge tables and the wire accounting they hand it (and in the
    flat engine's certified flood fast path).  The contract is strict:
    for equal inputs every field of the returned {!Engine.report} (and
    every deterministic [engine.*] Obs counter) must be identical across
    implementations.  [test/test_flatcore.ml] enforces this byte-for-byte
    for the layout-specific parts: arena and memo bit accounting, CSR
    target resolution (down to each [on_deliver] event) and the flood
    fast path. *)

module type S = sig
  type state
  type message

  val run :
    ?scheduler:Scheduler.t ->
    ?payload_bits:int ->
    ?step_limit:int ->
    ?faults:Faults.t ->
    ?vfaults:Vfaults.t ->
    ?churn:Churn.t ->
    ?supervisor:Supervisor.config ->
    ?verify_codec:bool ->
    ?stop:(unit -> bool) ->
    ?obs:Obs.t ->
    ?lineage:Obs.Lineage.t ->
    ?on_deliver:(Engine.event -> message -> unit) ->
    ?on_pop:(int -> unit) ->
    ?on_undelivered:(message -> unit) ->
    Digraph.t ->
    state Engine.report
end
