(* Discrete-event simulator tests: priority queue, event ordering, and the
   closed-loop model's queueing behaviour. *)
open Kflex_sim

let prop_heapq_sorted =
  QCheck.Test.make ~count:200 ~name:"heapq pops in key order"
    QCheck.(list (pair (float_bound_inclusive 1000.0) small_nat))
    (fun items ->
      let h = Heapq.create () in
      List.iter (fun (k, v) -> Heapq.push h k v) items;
      let rec drain last acc =
        match Heapq.pop h with
        | None -> List.rev acc
        | Some (k, _) ->
            if k < last then raise Exit;
            drain k (k :: acc)
      in
      match drain neg_infinity [] with
      | popped -> List.length popped = List.length items
      | exception Exit -> false)

let t_heapq_fifo_ties () =
  let h = Heapq.create () in
  List.iter (fun v -> Heapq.push h 1.0 v) [ 1; 2; 3 ];
  let order = List.init 3 (fun _ -> snd (Option.get (Heapq.pop h))) in
  Alcotest.(check (list int)) "fifo among equal keys" [ 1; 2; 3 ] order

let t_des_ordering () =
  let des = Des.create () in
  let log = ref [] in
  Des.schedule des ~delay:5.0 (fun () -> log := 5 :: !log);
  Des.schedule des ~delay:1.0 (fun () ->
      log := 1 :: !log;
      (* events scheduled during the run still execute in time order *)
      Des.schedule des ~delay:2.0 (fun () -> log := 3 :: !log));
  Des.run des;
  Alcotest.(check (list int)) "order" [ 1; 3; 5 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 5.0 (Des.now des)

let t_des_until () =
  let des = Des.create () in
  let fired = ref 0 in
  Des.schedule des ~delay:1.0 (fun () -> incr fired);
  Des.schedule des ~delay:10.0 (fun () -> incr fired);
  Des.run ~until:5.0 des;
  Alcotest.(check int) "only the early event" 1 !fired

let run_cl ?(clients = 64) ?(workers = 4) ?(gc = None) ~service requests =
  Closed_loop.run
    {
      Closed_loop.clients;
      workers;
      rtt_ns = 1000.0;
      requests;
      lane_of = (fun _ -> 0);
      gen = (fun i -> i);
      service_ns = (fun _ -> service);
      gc;
    }

let t_closed_loop_throughput () =
  (* saturated: throughput ~ workers / service *)
  let r = run_cl ~workers:4 ~service:1000.0 20_000 in
  let expect = 4.0 /. 1000.0 *. 1000.0 (* MOps *) in
  Alcotest.(check bool) "within 10%" true
    (abs_float (r.Closed_loop.throughput_mops -. expect) /. expect < 0.1);
  Alcotest.(check int) "all completed" 20_000 r.Closed_loop.completed

let t_closed_loop_latency_queueing () =
  (* more clients than capacity: p99 reflects queueing, not service *)
  let light = run_cl ~clients:2 ~workers:4 ~service:1000.0 5_000 in
  let heavy = run_cl ~clients:256 ~workers:4 ~service:1000.0 5_000 in
  Alcotest.(check bool) "light is fast" true (light.Closed_loop.p99_us < 3.0);
  Alcotest.(check bool) "heavy queues" true
    (heavy.Closed_loop.p99_us > 10.0 *. light.Closed_loop.p99_us)

let t_closed_loop_gc_pauses () =
  let without = run_cl ~workers:2 ~service:1000.0 30_000 in
  let with_gc =
    run_cl ~workers:2 ~gc:(Some (1_000_000.0, 100_000.0)) ~service:1000.0
      30_000
  in
  Alcotest.(check bool) "gc hurts p99" true
    (with_gc.Closed_loop.p99_us > without.Closed_loop.p99_us);
  Alcotest.(check bool) "gc hurts throughput" true
    (with_gc.Closed_loop.throughput_mops < without.Closed_loop.throughput_mops)

(* --- determinism ------------------------------------------------------- *)

(* The DES must replay identically: same schedule of events (including ones
   whose delays come from a seeded RNG) ⇒ identical event trace and clock. *)
let t_des_deterministic_trace () =
  let trace seed =
    let rng = Kflex_workload.Rng.create ~seed in
    let des = Des.create () in
    let log = ref [] in
    let rec arrival i =
      if i < 200 then
        Des.schedule des
          ~delay:(Kflex_workload.Rng.float rng *. 10.0)
          (fun () ->
            log := (i, Des.now des) :: !log;
            arrival (i + 1))
    in
    arrival 0;
    Des.run des;
    (List.rev !log, Des.now des)
  in
  let a = trace 11L and b = trace 11L in
  Alcotest.(check bool) "identical trace" true (a = b);
  let c = trace 12L in
  Alcotest.(check bool) "seed matters" true (a <> c)

(* The closed-loop model on top: same config twice ⇒ bit-identical result
   record, including when per-request service times are RNG-driven. *)
let t_closed_loop_deterministic () =
  let result seed =
    let rng = Kflex_workload.Rng.create ~seed in
    Closed_loop.run
      {
        Closed_loop.clients = 32;
        workers = 4;
        rtt_ns = 1000.0;
        requests = 5_000;
        lane_of = (fun _ -> 0);
        gen = (fun i -> i);
        service_ns =
          (fun _ -> 500.0 +. (Kflex_workload.Rng.float rng *. 1500.0));
        gc = None;
      }
  in
  Alcotest.(check bool) "identical results" true (result 3L = result 3L);
  Alcotest.(check bool) "seed matters" true (result 3L <> result 4L)

(* Split streams: giving the service-time and generation processes their own
   Rng.split children must not entangle them — replacing one stream's
   consumer leaves the other stream's draws unchanged. *)
let t_closed_loop_split_streams () =
  let streams seed ~drain =
    let parent = Kflex_workload.Rng.create ~seed in
    let svc = Kflex_workload.Rng.split parent in
    let gen = Kflex_workload.Rng.split parent in
    for _ = 1 to drain do
      ignore (Kflex_workload.Rng.next svc)
    done;
    ( List.init 50 (fun _ -> Kflex_workload.Rng.next svc),
      List.init 50 (fun _ -> Kflex_workload.Rng.next gen) )
  in
  let _, gen_a = streams 21L ~drain:0 in
  let _, gen_b = streams 21L ~drain:500 in
  (* the generation stream is untouched by how much the service stream
     consumed — the property that lets sim workloads, fuzz generation and
     layout randomisation coexist on one master seed *)
  Alcotest.(check bool) "gen stream independent of svc usage" true
    (gen_a = gen_b);
  let svc_a, gen_a = streams 21L ~drain:0 in
  Alcotest.(check bool) "streams differ" true (svc_a <> gen_a)

let t_closed_loop_faster_service_wins () =
  let slow = run_cl ~service:5000.0 10_000 in
  let fast = run_cl ~service:1000.0 10_000 in
  Alcotest.(check bool) "throughput" true
    (fast.Closed_loop.throughput_mops > 3.0 *. slow.Closed_loop.throughput_mops);
  Alcotest.(check bool) "latency" true
    (fast.Closed_loop.p99_us < slow.Closed_loop.p99_us)

(* --- service lanes ------------------------------------------------------- *)

(* A rare slow request class: one request in 250 holds a server for 200 us,
   the rest for 1 us. On its own lane it cannot delay the fast class, whose
   p99 (the slow class is under 1% of samples) stays at the fast-only
   figure; sharing the fast class's lane, it queues fast requests behind
   it and the p99 becomes the slow service time. *)
let t_lanes_isolate_slow_class () =
  let run ~lane_of ~slow_every =
    Closed_loop.run
      {
        Closed_loop.clients = 8;
        workers = 1;
        rtt_ns = 1000.0;
        requests = 20_000;
        lane_of;
        gen = (fun i -> slow_every > 0 && i mod slow_every = 0);
        service_ns = (fun slow -> if slow then 200_000.0 else 1000.0);
        gc = None;
      }
  in
  let fast_only = run ~lane_of:(fun _ -> 0) ~slow_every:0 in
  let shared = run ~lane_of:(fun _ -> 0) ~slow_every:250 in
  let split = run ~lane_of:(fun slow -> if slow then 1 else 0) ~slow_every:250 in
  (* within the recorder's bucket error: past 1024 samples it reports
     bucket midpoints *)
  Alcotest.(check bool) "own lane: fast p99 unchanged" true
    (split.Closed_loop.p99_us
    <= fast_only.Closed_loop.p99_us
       *. (1.0 +. Kflex_workload.Stats.relative_error));
  Alcotest.(check bool) "shared lane: slow class sets the p99" true
    (shared.Closed_loop.p99_us > 100.0
    && shared.Closed_loop.p99_us > 10.0 *. split.Closed_loop.p99_us);
  Alcotest.(check int) "all completed" 20_000 split.Closed_loop.completed

(* Saturated single-server lanes: requests spread round-robin over [k]
   lanes complete k times as fast. *)
let t_lanes_scale_throughput () =
  let run k =
    Closed_loop.run
      {
        Closed_loop.clients = 64;
        workers = 1;
        rtt_ns = 1000.0;
        requests = 20_000;
        lane_of = (fun i -> i mod k);
        gen = (fun i -> i);
        service_ns = (fun _ -> 1000.0);
        gc = None;
      }
  in
  let tp k = (run k).Closed_loop.throughput_mops in
  let one = tp 1 in
  Alcotest.(check bool) "one lane ~ 1 MOps" true (abs_float (one -. 1.0) < 0.1);
  List.iter
    (fun k ->
      let ratio = tp k /. one in
      if abs_float (ratio -. float_of_int k) > 0.1 *. float_of_int k then
        Alcotest.failf "%d lanes: %.2fx of one lane" k ratio)
    [ 2; 4 ]

let () =
  Alcotest.run "sim"
    [
      ( "heapq",
        [
          QCheck_alcotest.to_alcotest prop_heapq_sorted;
          Alcotest.test_case "fifo ties" `Quick t_heapq_fifo_ties;
        ] );
      ( "des",
        [
          Alcotest.test_case "ordering" `Quick t_des_ordering;
          Alcotest.test_case "until" `Quick t_des_until;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "des trace" `Quick t_des_deterministic_trace;
          Alcotest.test_case "closed-loop replay" `Quick
            t_closed_loop_deterministic;
          Alcotest.test_case "split streams" `Quick
            t_closed_loop_split_streams;
        ] );
      ( "closed-loop",
        [
          Alcotest.test_case "saturation throughput" `Quick
            t_closed_loop_throughput;
          Alcotest.test_case "queueing latency" `Quick
            t_closed_loop_latency_queueing;
          Alcotest.test_case "gc pauses" `Quick t_closed_loop_gc_pauses;
          Alcotest.test_case "service ordering" `Quick
            t_closed_loop_faster_service_wins;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "slow lane isolated" `Quick
            t_lanes_isolate_slow_class;
          Alcotest.test_case "throughput scales with lanes" `Quick
            t_lanes_scale_throughput;
        ] );
    ]
