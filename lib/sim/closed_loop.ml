module Stats = Kflex_workload.Stats

type 'req config = {
  clients : int;
  workers : int;
  rtt_ns : float;
  requests : int;
  lane_of : 'req -> int;
  gen : int -> 'req;
  service_ns : 'req -> float;
  gc : (float * float) option;
}

type result = {
  throughput_mops : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  completed : int;
}

(* fraction of requests, by issue order, left out of the measurement *)
let warmup_frac = 0.1

type 'req job = { req : 'req; issue : float; idx : int }

(* One service lane: a FIFO queue in front of [workers] anonymous servers,
   their GC deadlines and the lane's own latency recorder. *)
type 'req lane = {
  queue : 'req job Queue.t;
  mutable free : int;
  next_gc : float array;
  lat : Stats.t;
}

let run (cfg : 'req config) =
  if cfg.clients <= 0 || cfg.workers <= 0 || cfg.requests <= 0 then
    invalid_arg "Closed_loop.run";
  let des = Des.create () in
  let warmup = int_of_float (warmup_frac *. float_of_int cfg.requests) in
  let issued = ref 0 in
  let completed = ref 0 in
  let t_first = ref nan and t_last = ref 0.0 in
  let new_lane () =
    {
      queue = Queue.create ();
      free = cfg.workers;
      (* per-worker GC deadlines; workers are anonymous, so track the [gc]
         pauses as a lane-wide token bucket: one pause per worker per
         period *)
      next_gc =
        (match cfg.gc with
        | Some (period, _) ->
            Array.init cfg.workers (fun i ->
                period *. (1.0 +. (float_of_int i /. float_of_int cfg.workers)))
        | None -> [||]);
      lat = Stats.create ();
    }
  in
  (* lanes are created on first use, indexed by [lane_of] *)
  let lanes = ref [||] in
  let lane i =
    let old = !lanes in
    let n = Array.length old in
    if i >= n then
      lanes := Array.init (i + 1) (fun j -> if j < n then old.(j) else new_lane ());
    !lanes.(i)
  in
  let rec issue_next () =
    if !issued < cfg.requests then begin
      let idx = !issued in
      incr issued;
      let req = cfg.gen idx in
      let issue = Des.now des in
      Des.schedule des ~delay:(cfg.rtt_ns /. 2.0) (fun () ->
          arrival { req; issue; idx })
    end
  and arrival job =
    let l = lane (cfg.lane_of job.req) in
    if l.free > 0 then begin
      l.free <- l.free - 1;
      start_service l job
    end
    else Queue.push job l.queue
  and start_service l job =
    (* find a worker owing a GC pause *)
    let gc_delay =
      match cfg.gc with
      | None -> 0.0
      | Some (period, pause) ->
          let now = Des.now des in
          let due = ref (-1) in
          Array.iteri (fun i t -> if !due < 0 && t <= now then due := i) l.next_gc;
          if !due >= 0 then begin
            l.next_gc.(!due) <- now +. period;
            pause
          end
          else 0.0
    in
    let s = cfg.service_ns job.req in
    Des.schedule des ~delay:(gc_delay +. s) (fun () -> complete l job)
  and complete l job =
    (* response travels back; worker picks up queued work immediately *)
    (match Queue.take_opt l.queue with
    | Some next -> start_service l next
    | None -> l.free <- l.free + 1);
    Des.schedule des ~delay:(cfg.rtt_ns /. 2.0) (fun () ->
        let now = Des.now des in
        incr completed;
        if job.idx >= warmup then begin
          if Float.is_nan !t_first then t_first := now;
          t_last := now;
          Stats.add l.lat ((now -. job.issue) /. 1000.0)
        end;
        issue_next ())
  in
  for _ = 1 to cfg.clients do
    Des.schedule des ~delay:0.0 issue_next
  done;
  Des.run des;
  (* per-lane recorders fold in lane order *)
  let lat =
    Array.fold_left (fun acc l -> Stats.merge acc l.lat) (Stats.create ()) !lanes
  in
  let span_ns = !t_last -. !t_first in
  let counted = Stats.count lat in
  {
    throughput_mops =
      (if span_ns > 0.0 then float_of_int (counted - 1) /. span_ns *. 1000.0
       else 0.0);
    mean_us = Stats.mean lat;
    p50_us = Stats.percentile lat 0.50;
    p99_us = Stats.percentile lat 0.99;
    completed = !completed;
  }
