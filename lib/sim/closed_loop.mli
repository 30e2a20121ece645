(** Closed-loop load generation over the DES (the paper's testbed shape,
    §5): a fixed population of clients each keeps exactly one request
    outstanding; requests go to the service lane [lane_of req], and each
    lane runs [workers] servers behind its own FIFO queue. One lane
    ([fun _ -> 0]) is the paper's worker pool; one lane per engine shard
    with [workers = 1] ([lane_of = Engine.shard_of eng]) is the per-CPU
    shard model of the engine scaling benchmark.

    The [service_ns] callback is expected to {e actually execute} the
    request against the system under test (run the extension in the VM, or
    the native user-space server) and return the modelled service time in
    ns — so simulated results reflect real per-request work, cache
    behaviour included.

    [gc] optionally models the co-designed auxiliary slow path of §5.3: per
    worker, every [period] ns the worker stalls for [pause] ns (the
    user-space garbage collector contending with the fast path).

    The first 10% of requests (by issue order) are not measured. Each lane
    records its own latencies; the result folds them with
    {!Kflex_workload.Stats.merge} in lane order. *)

type 'req config = {
  clients : int;
  workers : int;  (** servers per lane *)
  rtt_ns : float;
  requests : int;  (** total requests to issue *)
  lane_of : 'req -> int;  (** service lane of a request, [>= 0] *)
  gen : int -> 'req;
  service_ns : 'req -> float;
  gc : (float * float) option;  (** (period_ns, pause_ns) *)
}

type result = {
  throughput_mops : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  completed : int;
}

val run : 'req config -> result
