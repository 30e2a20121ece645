(* The serve workloads: open-loop wire-to-verdict latency on a threaded
   engine, timed on the wall clock.

   One generator thread (this process's main domain) draws each request
   from the seed, encodes it to protocol bytes, then spins on the
   monotonic clock until the request's scheduled send time. From that
   instant the clock runs for the request: ingest (ring write → wire
   decode → packet_of_op) and Engine.submit happen here, and the shard
   domain stamps completion in on_done, where the reply is also checked
   against the app's semantics. Latency = completion − scheduled send
   time, so a stall of the generator or the engine is charged to every
   request it delays.

   One process runs a warm-up (untimed) and then rounds of three phases:
   light and heavy (fixed absolute rates) and saturation (the client
   capped at [window] outstanding requests, so the shard never idles and
   the backlog stays bounded). *)

open Kflex_kernel
module Engine = Kflex_engine.Engine
module Vm = Kflex_runtime.Vm
module Wire = Kflex_serve.Wire
module Ring = Kflex_serve.Ring
module Open_loop = Kflex_serve.Open_loop
module Rng = Kflex_workload.Rng
module Zipf = Kflex_workload.Zipf
module Arrivals = Kflex_workload.Arrivals
module Samples = Report.Samples
module BA = Bigarray.Array1

type spec = {
  name : string;
  proto : Wire.proto;
  keyspace : int;
  zipf_s : float;
  set_frac : float; (* writes; on Redis split evenly between SET and ZADD *)
  arrival : Arrivals.kind;
  light_rps : float;
  heavy_rps : float;
  guard : bool; (* ratelimit + conntrack tenants ahead of everything *)
  probe : bool;
      (* traced runs add a reaper probe: the same stream through a chain
         with the runaway burner, under a 200 us reaper deadline *)
}

let mc_get_zipf =
  {
    name = "mc-get-zipf";
    proto = Wire.Memcached;
    keyspace = 65_536;
    zipf_s = 0.99;
    set_frac = 0.1;
    arrival = Arrivals.Poisson;
    light_rps = 13_000.0;
    heavy_rps = 58_000.0;
    guard = false;
    probe = false;
  }

(* ZADDs go to a key range disjoint from GET/SET keys and pick one of
   [zmembers] (score, member) pairs, so the skiplists stay bounded on the
   tenant's 16 MiB heap however long the run. *)
let zmembers = 4

let redis_guard_burst =
  {
    name = "redis-guard-burst";
    proto = Wire.Redis;
    keyspace = 8_192;
    zipf_s = 0.8;
    set_frac = 0.5;
    arrival = Arrivals.Pareto_on_off { alpha = 1.5; min_burst = 8.0; burst = 2.0 };
    light_rps = 10_000.0;
    heavy_rps = 20_000.0;
    guard = true;
    probe = true;
  }

(* Two connections per workload: a connection rides in one bit of the op
   log. The saturation phase keeps [window] requests outstanding —
   milliseconds of work, so the shard never idles. *)
let conns = 2
let window = 2048
let ph_warm = 0
let ph_light = 1
let ph_heavy = 2
let ph_sat = 3
let ph_light_untraced = 4
let ph_depth1 = 5
let ph_depth16 = 6
let cmd_get = 0
let cmd_set = 1
let cmd_zadd = 2

(* Tracing state. Stamps are indexed by trace number (requests of the
   traced light and heavy phases, in order); the op log, indexed by log
   number, holds every request outside the saturation phases, for the
   twin replay. *)
type trace = {
  cap : int;
  due : (int, Bigarray.int_elt, Bigarray.c_layout) BA.t;
  t_in : (int, Bigarray.int_elt, Bigarray.c_layout) BA.t; (* ingest starts *)
  t_dec : (int, Bigarray.int_elt, Bigarray.c_layout) BA.t; (* packet ready *)
  t_sub : (int, Bigarray.int_elt, Bigarray.c_layout) BA.t; (* submit returned *)
  t_done : (int, Bigarray.int_elt, Bigarray.c_layout) BA.t; (* on_done *)
  tphase : (int, Bigarray.int_elt, Bigarray.c_layout) BA.t;
  log_cap : int;
  ops : (int, Bigarray.int_elt, Bigarray.c_layout) BA.t;
      (* key_rank lsl 7 lor j lsl 4 lor cmd lsl 2 lor conn lsl 1 lor timed *)
}

let trace_create ~cap ~log_cap =
  let mk n =
    let a = BA.create Bigarray.int Bigarray.c_layout n in
    BA.fill a (-1);
    a
  in
  {
    cap;
    due = mk cap;
    t_in = mk cap;
    t_dec = mk cap;
    t_sub = mk cap;
    t_done = mk cap;
    tphase = mk cap;
    log_cap;
    ops = mk log_cap;
  }

(* In-flight request slots: written by the generator before submit, read
   by the shard domain in on_done (the shard queue's mutex orders the
   two); a slot is reused only after its request completed. *)
type slots = {
  mask : int;
  s_due : int array;
  s_meta : int array; (* rank lsl 5 lor cmd lsl 3 lor phase *)
  s_ti : int array; (* trace number, -1 if untraced *)
  s_pkt : Packet.t array;
  completed : int Atomic.t;
}

(* Shard-domain state: touched only from on_done. The counters cover
   the light and heavy phases; every phase is checked. *)
type worker = {
  stored : Bytes.t; (* per GET/SET rank: '\000' absent, '\001' stored, '\002' unknown *)
  vals : Bytes.t; (* expected value bytes per rank *)
  lat : Samples.t array; (* per phase, us *)
  cancelled_lat : Samples.t; (* requests that saw a cancellation, us *)
  gaps : Samples.t; (* saturation: us between consecutive completions *)
  mutable last_done : int; (* completion time of the previous request *)
  mutable wdone : int;
  mutable gets : int;
  mutable hits : int;
  mutable refused : int;
  mutable cancel_burner : int;
  mutable cancel_other : int;
  mutable fallbacks : int;
  mutable wrong : int;
  mutable first_wrong : string list;
}

type ctx = {
  spec : spec;
  hook : Hook.kind;
  chain_len : int;
  burner_pos : int; (* chain index of the burner, -1 if absent *)
  cache_verdict : int64;
  sl : slots;
  w : worker;
  tr : trace option;
}

let wrong c fmt =
  Printf.ksprintf
    (fun s ->
      c.w.wrong <- c.w.wrong + 1;
      if List.length c.w.first_wrong < 5 then c.w.first_wrong <- s :: c.w.first_wrong)
    fmt

let value_matches c rank (pkt : Packet.t) ~partial =
  let ok = ref true in
  for i = 0 to 3 do
    let got = Bytes.get_int64_le pkt.Packet.payload (33 + (8 * i)) in
    let want = Bytes.get_int64_le c.w.vals ((rank * 32) + (8 * i)) in
    if not (Int64.equal got want || (partial && Int64.equal got 0L)) then ok := false
  done;
  !ok

(* The reply check. One FIFO shard serves requests in submission order,
   so [stored] is the exact cache contents every GET must reflect. A
   guard refusal (the chain stopped before the cache) and a cancelled
   cache entry are counted, not failed; a cancelled SET leaves its key's
   value unknown (the entry may be half written) until the next SET. *)
let check c (r : Engine.run_result) ~cmd ~rank (pkt : Packet.t) ~lat_us ~counted =
  let w = c.w in
  if counted then begin
    let saw_cancel = ref false in
    List.iteri
      (fun i o ->
        match o with
        | Vm.Cancelled _ ->
            saw_cancel := true;
            if i = c.burner_pos then w.cancel_burner <- w.cancel_burner + 1
            else w.cancel_other <- w.cancel_other + 1
        | Vm.Finished _ -> ())
      r.Engine.outcomes;
    if !saw_cancel then Samples.add w.cancelled_lat lat_us
  end;
  if r.Engine.executed < c.chain_len then begin
    if Int64.equal r.Engine.verdict (Hook.pass_verdict c.hook) then
      wrong c "chain stopped early with a pass verdict";
    if counted then w.refused <- w.refused + 1
  end
  else
    match List.nth r.Engine.outcomes (c.chain_len - 1) with
    | Vm.Cancelled _ ->
        w.fallbacks <- w.fallbacks + 1;
        if cmd = cmd_set then Bytes.set w.stored rank '\002'
    | Vm.Finished v ->
        if not (Int64.equal v c.cache_verdict) then
          wrong c "cache verdict %Ld, expected %Ld" v c.cache_verdict
        else begin
          let hit = Bytes.get pkt.Packet.payload 65 in
          if cmd = cmd_get then begin
            if counted then begin
              w.gets <- w.gets + 1;
              if hit = '\001' then w.hits <- w.hits + 1
            end;
            match Bytes.get w.stored rank with
            | '\000' -> if hit <> '\000' then wrong c "GET rank %d: hit on an absent key" rank
            | '\001' ->
                if hit <> '\001' then wrong c "GET rank %d: miss on a stored key" rank
                else if not (value_matches c rank pkt ~partial:false) then
                  wrong c "GET rank %d: wrong value" rank
            | _ ->
                if hit = '\001' && not (value_matches c rank pkt ~partial:true) then
                  wrong c "GET rank %d: value neither old nor new" rank
          end
          else if hit <> '\001' then
            wrong c "%s rank %d: not stored" (if cmd = cmd_set then "SET" else "ZADD") rank
          else if cmd = cmd_set then Bytes.set w.stored rank '\001'
        end

let on_done c (r : Engine.run_result) =
  let now = Report.now () in
  let sl = c.sl and w = c.w in
  let k = w.wdone in
  let slot = k land sl.mask in
  let meta = sl.s_meta.(slot) in
  let phase = meta land 7 in
  let lat_us = Report.us_of_ns (now - sl.s_due.(slot)) in
  Samples.add w.lat.(phase) lat_us;
  if phase = ph_sat then begin
    if w.last_done > 0 then Samples.add w.gaps (Report.us_of_ns (now - w.last_done));
    w.last_done <- now
  end
  else w.last_done <- 0;
  check c r ~cmd:((meta lsr 3) land 3) ~rank:(meta lsr 5) sl.s_pkt.(slot) ~lat_us
    ~counted:(phase = ph_light || phase = ph_heavy);
  (match c.tr with
  | Some tr ->
      let ti = sl.s_ti.(slot) in
      if ti >= 0 then begin
        BA.unsafe_set tr.t_done ti now
      end
  | None -> ());
  w.wdone <- k + 1;
  Atomic.set sl.completed (k + 1)

(* --- the generator -------------------------------------------------------- *)

type gen = {
  c : ctx;
  eng : Engine.t;
  on_done_f : Engine.run_result -> unit;
  rng : Rng.t;
  zipf : Zipf.t;
  rings : Ring.t array;
  decs : Wire.decoder array;
  tmp : Bytes.t;
  mutable submitted : int;
  mutable ti : int; (* next trace number *)
  mutable oi : int; (* next op-log number *)
  mutable last_tick : int;
  mutable measuring : bool; (* light/heavy: record lateness, stalls, backlog *)
  mutable tracing : bool;
  late : Samples.t; (* us *)
  mutable stalls : int;
  mutable measured : int; (* requests issued in light and heavy phases *)
  mutable backlog_max : int;
  mutable ingest_words : float;
  mutable ingest_n : int;
  mutable proto_errors : int;
}

let wire_cmd cmd j =
  if cmd = cmd_get then Wire.Get
  else if cmd = cmd_set then Wire.Set
  else Wire.Zadd (Int64.of_int j, Int64.of_int (j + 1))

(* Spin to [due]; a gap over 100 us between two clock reads is a stall
   (the thread was descheduled or stopped by the GC). *)
let wait_until g due =
  let rec go last =
    let t = Report.now () in
    if g.measuring && t - last > 100_000 then g.stalls <- g.stalls + 1;
    if t >= due then t else go t
  in
  let t = go g.last_tick in
  g.last_tick <- t;
  t

(* Send one request: [rank] is the key's Zipf rank, [j] the ZADD member. *)
let send g ~phase ~due ~rank ~cmd ~conn ~j =
  let c = g.c in
  let spec = c.spec in
  let key_rank = if cmd = cmd_zadd then spec.keyspace + rank else rank in
  let k = g.submitted in
  let op = Wire.op_of_rank ~cmd:(wire_cmd cmd j) ~rank:key_rank ~opaque:(Int32.of_int (k land 0x3fff_ffff)) in
  let frame = Wire.encode spec.proto op in
  (* a slot frees when its request completes *)
  while k - Atomic.get c.sl.completed > c.sl.mask do
    Domain.cpu_relax ()
  done;
  let t_in = wait_until g due in
  let w0 = if g.tracing then Gc.minor_words () else 0.0 in
  (* ingest: the bytes go through the connection's ring and decoder *)
  let ring = g.rings.(conn) and dec = g.decs.(conn) in
  if not (Ring.write ring frame 0 (Bytes.length frame)) then
    failwith "perfbench: connection ring full";
  let rec pull () =
    let n = Ring.read ring g.tmp 0 (Bytes.length g.tmp) in
    if n > 0 then begin
      Wire.feed dec g.tmp 0 n;
      pull ()
    end
  in
  pull ();
  match Wire.next dec with
  | exception Wire.Protocol_error _ ->
      g.proto_errors <- g.proto_errors + 1;
      g.decs.(conn) <- Wire.decoder spec.proto
  | None -> g.proto_errors <- g.proto_errors + 1
  | Some op' ->
      let pkt = Wire.packet_of_op ~src_port:(1024 + conn) spec.proto op' in
      let t_dec = Report.now () in
      if g.tracing then begin
        g.ingest_words <- g.ingest_words +. (Gc.minor_words () -. w0);
        g.ingest_n <- g.ingest_n + 1
      end;
      let traced = g.tracing && g.ti < (match c.tr with Some tr -> tr.cap | None -> 0) in
      let slot = k land c.sl.mask in
      c.sl.s_due.(slot) <- due;
      c.sl.s_meta.(slot) <- (rank lsl 5) lor (cmd lsl 3) lor phase;
      c.sl.s_ti.(slot) <- (if traced then g.ti else -1);
      c.sl.s_pkt.(slot) <- pkt;
      Engine.submit g.eng ~hook:c.hook ~on_done:g.on_done_f pkt;
      let t_sub = Report.now () in
      g.submitted <- k + 1;
      g.last_tick <- t_sub;
      if g.measuring then begin
        g.measured <- g.measured + 1;
        Samples.add g.late (Report.us_of_ns (t_in - due));
        let b = k + 1 - Atomic.get c.sl.completed in
        if b > g.backlog_max then g.backlog_max <- b
      end;
      (match c.tr with
      | Some tr ->
          if phase <> ph_sat && g.oi < tr.log_cap then begin
            BA.unsafe_set tr.ops g.oi
              ((key_rank lsl 7) lor (j lsl 4) lor (cmd lsl 2) lor (conn lsl 1)
              lor Bool.to_int traced);
            g.oi <- g.oi + 1
          end;
          if traced then begin
            let ti = g.ti in
            BA.unsafe_set tr.due ti due;
            BA.unsafe_set tr.t_in ti t_in;
            BA.unsafe_set tr.t_dec ti t_dec;
            BA.unsafe_set tr.t_sub ti t_sub;
            BA.unsafe_set tr.tphase ti phase;
            g.ti <- ti + 1
          end
      | None -> ());
      (* opaque is not carried over RESP *)
      if op'.Wire.cmd <> op.Wire.cmd || op'.Wire.key <> op.Wire.key || op'.Wire.value <> op.Wire.value
      then g.proto_errors <- g.proto_errors + 1

let issue g ~phase ~due =
  let spec = g.c.spec in
  let rank = Zipf.sample g.zipf g.rng in
  let cmd =
    if Rng.float g.rng < spec.set_frac then
      match spec.proto with
      | Wire.Memcached -> cmd_set
      | Wire.Redis -> if Rng.bool g.rng then cmd_set else cmd_zadd
    else cmd_get
  in
  let conn = Rng.int g.rng conns in
  let j = if cmd = cmd_zadd then Rng.int g.rng zmembers else 0 in
  send g ~phase ~due ~rank ~cmd ~conn ~j

let wait_all g =
  while Atomic.get g.c.sl.completed < g.submitted do
    Domain.cpu_relax ()
  done

(* Fixed-rate open-loop phase. *)
let rate_phase g ~phase ~rate ~dur_ns =
  let arr = Arrivals.create ~kind:g.c.spec.arrival ~rate (Rng.split g.rng) in
  let t0 = Report.now () in
  g.last_tick <- t0;
  let rec loop () =
    let due = t0 + int_of_float (Arrivals.next arr) in
    if due < t0 + dur_ns then begin
      issue g ~phase ~due;
      loop ()
    end
  in
  loop ();
  wait_all g

(* Store every key before the timed phases, in ascending rank order (on
   Redis also every ZADD member), so the cache holds the same entries for
   the whole run: while it fills, its hash chains lengthen and every
   figure drifts with the run's length. At most [window] outstanding. *)
let preload g =
  let send_wait ~rank ~cmd ~j =
    while g.submitted - Atomic.get g.c.sl.completed >= window do
      Domain.cpu_relax ()
    done;
    let t = Report.now () in
    g.last_tick <- t;
    send g ~phase:ph_warm ~due:t ~rank ~cmd ~conn:(rank land (conns - 1)) ~j
  in
  for rank = 0 to g.c.spec.keyspace - 1 do
    send_wait ~rank ~cmd:cmd_set ~j:0;
    if g.c.spec.proto = Wire.Redis then
      for j = 0 to zmembers - 1 do
        send_wait ~rank ~cmd:cmd_zadd ~j
      done
  done;
  wait_all g

(* Closed loop: keep [depth] requests outstanding, each sent (and its
   latency clock started) as soon as a slot frees. *)
let closed_phase g ~phase ~depth ~dur_ns =
  let t_end = Report.now () + dur_ns in
  let rec loop () =
    let t = Report.now () in
    if t < t_end then begin
      if g.submitted - Atomic.get g.c.sl.completed < depth then begin
        g.last_tick <- t;
        issue g ~phase ~due:t
      end
      else Domain.cpu_relax ();
      loop ()
    end
  in
  loop ();
  wait_all g

(* Saturation: keep [window] requests outstanding for [dur_ns]; returns
   (completions, ns) over that span of wall time. *)
let sat_phase g ~dur_ns =
  let c0 = Atomic.get g.c.sl.completed in
  let t0 = Report.now () in
  let t_end = t0 + dur_ns in
  let rec loop () =
    let t = Report.now () in
    if t < t_end then begin
      if g.submitted - Atomic.get g.c.sl.completed < window then begin
        g.last_tick <- t;
        issue g ~phase:ph_sat ~due:t
      end
      else
        (* window full: leave both cores to the shard and the reaper; the
           window holds milliseconds of work, so oversleeping is harmless *)
        Unix.sleepf 200e-6;
      loop ()
    end
  in
  loop ();
  let c1 = Atomic.get g.c.sl.completed in
  let t1 = Report.now () in
  wait_all g;
  (c1 - c0, t1 - t0)

(* --- engine set-up -------------------------------------------------------- *)

let burner_deadline_us = 200.0

let loop_config spec ~seed ~burn =
  {
    Open_loop.default with
    Open_loop.proto = spec.proto;
    keyspace = spec.keyspace;
    zipf_s = spec.zipf_s;
    set_frac = spec.set_frac;
    seed = Int64.of_int seed;
    burn;
    guard = spec.guard;
    guard_capacity = Admit.guard_capacity;
    guard_window_us = Admit.guard_window_us;
    deadline_us = burner_deadline_us;
  }

(* [burn] puts the runaway burner ahead of the cache and arms the reaper;
   without it the engine has no deadline and no reaper domain. *)
let build_engine spec ~seed ~mode ~burn =
  let eng =
    Engine.create ~shards:1 ~mode
      ?deadline_ns:(if burn then Some (burner_deadline_us *. 1e3) else None)
      ~seed:(Int64.of_int seed) ()
  in
  Open_loop.attach_tenants (loop_config spec ~seed ~burn) eng;
  eng

(* Empty the process-global compiled-program cache, so each timed set-up
   pays for its own JIT compiles: shrink it to one entry and push a
   trivial program into that entry. *)
let flush_jit_cache () =
  Kflex.set_jit_cache_capacity 1;
  let c = Kflex_eclang.Compile.compile_string "fn prog(c: ctx) -> u64 { return 2; }" in
  ignore (Kflex.admit ~backend:`Compiled ~hook:Hook.Xdp c.Kflex_eclang.Compile.prog);
  Kflex.set_jit_cache_capacity 64


(* --- the run -------------------------------------------------------------- *)

let tenants spec =
  (if spec.guard then [ Admit.ratelimit_bucket; Admit.conntrack ] else [])
  @ [ (match spec.proto with Wire.Memcached -> Admit.memcached | Wire.Redis -> Admit.redis) ]

(* Replay the op log, in order, on a deterministic one-shard engine created
   without a deadline (with one it would run the hooked interpreter),
   timing Engine.run_packet on the requests of the traced phases. *)
let twin_replay spec ~seed tr ~n rep =
  let eng = build_engine spec ~seed ~mode:`Deterministic ~burn:false in
  let hook = Wire.hook_of spec.proto in
  let st = Engine.shard_stats eng 0 in
  let exec = Samples.create () in
  let insns = ref 0 and guards = ref 0 and cps = ref 0 in
  let calls = ref 0 and hcost = ref 0 and words = ref 0.0 in
  let ns = ref 0 and count = ref 0 in
  for i = 0 to n - 1 do
    let op = BA.get tr.ops i in
    let pkt =
      Wire.packet_of_op ~src_port:(1024 + ((op lsr 1) land 1)) spec.proto
        (Wire.op_of_rank
           ~cmd:(wire_cmd ((op lsr 2) land 3) ((op lsr 4) land 7))
           ~rank:(op lsr 7) ~opaque:0l)
    in
    if op land 1 = 0 then ignore (Engine.run_packet eng ~hook pkt)
    else begin
      let i0 = st.Vm.insns and g0 = st.Vm.guards and c0 = st.Vm.checkpoints in
      let h0 = st.Vm.helper_calls and hc0 = st.Vm.helper_cost in
      let w0 = Gc.minor_words () in
      let t0 = Report.now () in
      ignore (Engine.run_packet eng ~hook pkt);
      let t1 = Report.now () in
      words := !words +. (Gc.minor_words () -. w0);
      Samples.add exec (Report.us_of_ns (t1 - t0));
      ns := !ns + (t1 - t0);
      insns := !insns + (st.Vm.insns - i0);
      guards := !guards + (st.Vm.guards - g0);
      cps := !cps + (st.Vm.checkpoints - c0);
      calls := !calls + (st.Vm.helper_calls - h0);
      hcost := !hcost + (st.Vm.helper_cost - hc0);
      incr count
    end
  done;
  let leaked = (Engine.totals eng).Engine.leaked in
  Engine.shutdown eng;
  let per x = float_of_int x /. float_of_int (Stdlib.max 1 !count) in
  Report.note rep "twin: %d of %d replayed requests timed" !count n;
  Report.add rep "runtime.exec_us.p50" "us" (Samples.pct exec 0.50);
  Report.add rep "runtime.exec_us.p99" "us" (Samples.pct exec 0.99);
  Report.add rep "runtime.words_per_req" "words" (!words /. float_of_int (Stdlib.max 1 !count));
  Report.add rep "runtime.ns_per_insn" "ns" (float_of_int !ns /. float_of_int (Stdlib.max 1 !insns));
  Report.note rep "runtime.ns_per_insn is modelled as Kernel.Cost.insn_ns = %g ns" Cost.insn_ns;
  Report.add rep "runtime.insns_per_req" "insns" (per !insns);
  Report.add rep "runtime.guards_per_req" "count" (per !guards);
  Report.add rep "runtime.checkpoints_per_req" "count" (per !cps);
  Report.add rep "kernel.helper_calls_per_req" "count" (per !calls);
  Report.add rep "kernel.helper_cost_per_req" "cost" (per !hcost);
  (Samples.pct exec 0.50, leaked)

(* Per-layer breakdown of the traced requests. *)
let report_trace spec ~seed g tr ~spans_path rep =
  let ingest = Samples.create () and submit = Samples.create () in
  let queued = Samples.create () and service = Samples.create () in
  let l_late = Samples.create () and l_ingest = Samples.create () in
  let l_submit = Samples.create () and l_queued = Samples.create () in
  let l_service = Samples.create () and l_e2e = Samples.create () in
  let spans = Report.span_log () in
  for ti = 0 to g.ti - 1 do
    let due = BA.get tr.due ti and t_in = BA.get tr.t_in ti in
    let t_dec = BA.get tr.t_dec ti and t_sub = BA.get tr.t_sub ti in
    let t_done = BA.get tr.t_done ti in
    (* phases end with every request completed, so the previous traced
       request is the previous request whenever it could queue this one *)
    let prev = if ti > 0 then BA.get tr.t_done (ti - 1) else -1 in
    let q = Stdlib.max 0 (prev - t_sub) in
    let svc_start = Stdlib.max t_sub prev in
    Samples.add ingest (float_of_int (t_dec - t_in));
    Samples.add submit (float_of_int (t_sub - t_dec));
    Samples.add queued (Report.us_of_ns q);
    Samples.add service (Report.us_of_ns (t_done - svc_start));
    if BA.get tr.tphase ti = ph_light then begin
      Samples.add l_late (Report.us_of_ns (t_in - due));
      Samples.add l_ingest (Report.us_of_ns (t_dec - t_in));
      Samples.add l_submit (Report.us_of_ns (t_sub - t_dec));
      Samples.add l_queued (Report.us_of_ns q);
      Samples.add l_service (Report.us_of_ns (t_done - svc_start));
      Samples.add l_e2e (Report.us_of_ns (t_done - due))
    end;
    if ti land 15 = 0 then begin
      let sp name parent start stop = Report.span spans ~req:ti ~name ~parent ~start ~stop in
      sp "request" "" due t_done;
      sp "driver.late" "request" due t_in;
      sp "serve.ingest" "request" t_in t_dec;
      sp "engine.submit" "request" t_dec t_sub;
      sp "engine.queued" "request" t_sub svc_start;
      sp "engine.service" "request" svc_start t_done
    end
  done;
  let med s = Samples.pct s 0.50 in
  Report.add rep "serve.ingest_ns.p50" "ns" (med ingest);
  Report.add rep "serve.ingest_ns.p99" "ns" (Samples.pct ingest 0.99);
  Report.add rep "serve.ingest_words_per_req" "words"
    (g.ingest_words /. float_of_int (Stdlib.max 1 g.ingest_n));
  Report.add rep "engine.submit_ns.p50" "ns" (med submit);
  Report.add rep "engine.queued_us.p50" "us" (med queued);
  Report.add rep "engine.queued_us.p99" "us" (Samples.pct queued 0.99);
  Report.add rep "engine.service_us.p50" "us" (med service);
  Report.add rep "engine.service_us.p99" "us" (Samples.pct service 0.99);
  let exec_p50, twin_leaked = twin_replay spec ~seed tr ~n:g.oi rep in
  if twin_leaked > 0 then Report.fail rep "twin engine leaked %d objects" twin_leaked;
  Report.add rep "engine.handoff_us.p50" "us" (med service -. exec_p50);
  (* closure: the layers of a light-load request, against its latency *)
  let sum = List.fold_left (fun a s -> a +. med s) 0.0 [ l_late; l_ingest; l_submit; l_queued; l_service ] in
  Report.add rep "closure.sum_us" "us" sum;
  Report.add rep "closure.e2e_p50_us" "us" (med l_e2e);
  Report.add rep "closure.ratio" "ratio" (sum /. med l_e2e);
  Report.write_spans spans ~path:spans_path;
  Report.note rep "%d spans written to %s" spans.Report.rows spans_path

let make_gen spec ~seed ~eng ~burn ~rings ~decs ~tr =
  let hook = Wire.hook_of spec.proto in
  let chain_len = Engine.chain_length eng hook in
  let slots = 0x4000 in
  let c =
    {
      spec;
      hook;
      chain_len;
      burner_pos = (if burn then chain_len - 2 else -1);
      cache_verdict = (match spec.proto with Wire.Memcached -> Hook.xdp_tx | Wire.Redis -> 0L);
      sl =
        {
          mask = slots - 1;
          s_due = Array.make slots 0;
          s_meta = Array.make slots 0;
          s_ti = Array.make slots (-1);
          s_pkt = Array.make slots (Packet.make ~proto:Packet.Udp ~src_port:0 ~dst_port:0 Bytes.empty);
          completed = Atomic.make 0;
        };
      w =
        {
          stored = Bytes.make spec.keyspace '\000';
          vals =
            (let b = Bytes.create (spec.keyspace * 32) in
             for r = 0 to spec.keyspace - 1 do
               Bytes.blit_string (Wire.value_of_rank r) 0 b (r * 32) 32
             done;
             b);
          lat = Array.init 7 (fun _ -> Samples.create ());
          cancelled_lat = Samples.create ();
          gaps = Samples.create ();
          last_done = 0;
          wdone = 0;
          gets = 0;
          hits = 0;
          refused = 0;
          cancel_burner = 0;
          cancel_other = 0;
          fallbacks = 0;
          wrong = 0;
          first_wrong = [];
        };
      tr;
    }
  in
  {
      c;
      eng;
      on_done_f = on_done c;
      rng = Rng.create ~seed:(Int64.of_int seed);
      zipf = Zipf.create ~s:spec.zipf_s ~n:spec.keyspace ();
      rings;
      decs;
      tmp = Bytes.create 4096;
      submitted = 0;
      ti = 0;
      oi = 0;
      last_tick = Report.now ();
      measuring = false;
      tracing = false;
      late = Samples.create ();
      stalls = 0;
      measured = 0;
      backlog_max = 0;
      ingest_words = 0.0;
      ingest_n = 0;
      proto_errors = 0;
  }

(* Count every correctness failure of a finished generator. *)
let check_run g ~(totals : Engine.totals) ~sockets rep =
  let c = g.c in
  let w = c.w in
  rep.Report.attempted <- rep.Report.attempted + g.submitted;
  let missing = g.submitted - Atomic.get c.sl.completed in
  if missing > 0 then Report.fail rep "%d requests never completed" missing;
  if totals.Engine.events <> g.submitted then
    Report.fail rep "engine ran %d events for %d requests" totals.Engine.events g.submitted;
  if g.proto_errors > 0 then Report.fail rep "%d protocol errors" g.proto_errors;
  List.iter (fun s -> Report.fail rep "%s" s) (List.rev w.first_wrong);
  if w.wrong > List.length w.first_wrong then
    rep.Report.failed <- rep.Report.failed + (w.wrong - List.length w.first_wrong);
  if totals.Engine.leaked > 0 || sockets > 0 then
    Report.fail rep "leaked: %d ledger objects, %d socket refs" totals.Engine.leaked sockets

let new_conns spec =
  ( Array.init conns (fun _ -> Ring.create 4096),
    Array.init conns (fun _ -> Wire.decoder spec.proto) )

(* The reaper probe: the light-rate stream through the chain with the
   runaway burner (on ~1/256 of keys) ahead of the cache, on an engine
   whose reaper cancels invocations past 200 us on the wall clock. Kept
   out of the timed rounds: on a 2-core host the reaper domain fires
   milliseconds late, and with the burner in the chain every latency
   figure of the workload swung run to run by more than its bound. *)
let reaper_probe spec ~seed ~seconds rep =
  let eng = build_engine spec ~seed ~mode:`Threaded ~burn:true in
  let rings, decs = new_conns spec in
  let g = make_gen spec ~seed:(seed + 1) ~eng ~burn:true ~rings ~decs ~tr:None in
  rate_phase g ~phase:ph_warm ~rate:spec.light_rps ~dur_ns:200_000_000;
  g.measuring <- true;
  rate_phase g ~phase:ph_light ~rate:spec.light_rps ~dur_ns:(int_of_float (seconds *. 1e9));
  g.measuring <- false;
  Engine.drain eng;
  let totals = Engine.totals eng and sockets = Engine.socket_refs eng in
  Engine.shutdown eng;
  check_run g ~totals ~sockets rep;
  let w = g.c.w in
  let lat = w.lat.(ph_light) in
  Report.note rep
    "reaper probe: %d requests at %.0f req/s, chain of %d with the burner; p50 %.1f us, p90 %.1f us, p99 %.1f us"
    g.measured spec.light_rps g.c.chain_len (Samples.pct lat 0.5) (Samples.pct lat 0.9)
    (Samples.pct lat 0.99);
  (w, float_of_int g.measured /. 1e3, totals.Engine.leaked)

let run spec ~seed ~seconds ~trace ~spans_path rep =
  let hook = Wire.hook_of spec.proto in
  (* set-up: engine + tenant admission + connection rings, each with an
     empty compiled-program cache; timed 5 times here and once more after
     every round, so a slow spell of the host spoils few of them, and
     reported as the median *)
  let times = ref [] in
  let setup () =
    flush_jit_cache ();
    let t0 = Report.now () in
    let eng = build_engine spec ~seed ~mode:`Threaded ~burn:false in
    let rings, decs = new_conns spec in
    times := Report.s_of_ns (Report.now () - t0) :: !times;
    (eng, rings, decs)
  in
  for _ = 1 to 4 do
    let e, _, _ = setup () in
    Engine.shutdown e
  done;
  let eng, rings, decs = setup () in
  let chain_len = (if spec.guard then 2 else 0) + 1 in
  if Engine.chain_length eng hook <> chain_len then failwith "perfbench: unexpected chain";
  (* Rounds of phases; each end-to-end figure is the median over rounds,
     so a burst of host noise spoils a round, not the run. The reported
     latencies and rate come from the closed-loop and saturation phases:
     there a stall of the host delays the few requests in flight, where
     in an open loop every request arriving during the stall queues
     behind it and a host slowdown moves even the median (by 2-6x between
     runs on a shared 2-vCPU host). The open-loop phases at the fixed
     rates are printed and traced, not reported. With tracing, each round
     starts with an untraced light phase, and the tracing overhead is the
     difference; the closed-loop phases are skipped. *)
  let warm_s = 0.05 *. seconds in
  let rounds = Stdlib.max 2 (int_of_float (Float.round (seconds -. warm_s))) in
  let round_s = (seconds -. warm_s) /. float_of_int rounds in
  let light_f, heavy_f, depth_f, sat_f, untraced_f =
    if trace then (0.25, 0.3, 0.0, 0.25, 0.2) else (0.1, 0.1, 0.2, 0.4, 0.0)
  in
  let ns f = int_of_float (f *. round_s *. 1e9) in
  let tr =
    if not trace then None
    else
      let per_round f rate = f *. round_s *. rate *. float_of_int rounds in
      let cap = int_of_float (1.5 *. (per_round light_f spec.light_rps +. per_round heavy_f spec.heavy_rps)) + 4096 in
      let log_cap = cap + int_of_float (1.5 *. ((warm_s *. spec.heavy_rps) +. per_round untraced_f spec.light_rps)) + 4096 in
      Some (trace_create ~cap ~log_cap)
  in
  let g = make_gen spec ~seed ~eng ~burn:false ~rings ~decs ~tr in
  let c = g.c in
  preload g;
  rate_phase g ~phase:ph_warm ~rate:spec.heavy_rps ~dur_ns:(int_of_float (warm_s *. 1e9));
  let gc0 = Gc.quick_stat () in
  let k0 = g.submitted in
  (* per-round statistics; the worker is idle between phases, so the
     generator may read and reset the phase's samples *)
  let stat ph qs =
    let s = c.w.lat.(ph) in
    let v = List.map (Samples.pct s) qs in
    c.w.lat.(ph) <- Samples.create ();
    v
  in
  let light = ref [] and heavy = ref [] and untraced = ref [] in
  let depth1 = ref [] and depth16 = ref [] and sat = ref [] and gap = ref [] in
  let meas_ns = ref 0 in
  let qs = [ 0.50; 0.75; 0.90; 0.99 ] in
  for _ = 1 to rounds do
    if trace then begin
      rate_phase g ~phase:ph_light_untraced ~rate:spec.light_rps ~dur_ns:(ns untraced_f);
      untraced := stat ph_light_untraced [ 0.50 ] :: !untraced
    end;
    g.measuring <- true;
    g.tracing <- trace;
    let t0 = Report.now () in
    rate_phase g ~phase:ph_light ~rate:spec.light_rps ~dur_ns:(ns light_f);
    light := stat ph_light qs :: !light;
    rate_phase g ~phase:ph_heavy ~rate:spec.heavy_rps ~dur_ns:(ns heavy_f);
    heavy := stat ph_heavy qs :: !heavy;
    meas_ns := !meas_ns + (Report.now () - t0);
    g.measuring <- false;
    g.tracing <- false;
    if not trace then begin
      closed_phase g ~phase:ph_depth1 ~depth:1 ~dur_ns:(ns depth_f);
      depth1 := stat ph_depth1 qs :: !depth1;
      closed_phase g ~phase:ph_depth16 ~depth:16 ~dur_ns:(ns depth_f);
      depth16 := stat ph_depth16 qs :: !depth16
    end;
    Samples.clear c.w.gaps;
    sat := sat_phase g ~dur_ns:(ns sat_f) :: !sat;
    gap := Samples.pct c.w.gaps 0.50 :: !gap;
    let e, _, _ = setup () in
    Engine.shutdown e
  done;
  let setup_s = Report.median !times in
  Engine.drain eng;
  let gc1 = Gc.quick_stat () in
  let heap_peak_mb = float_of_int (gc1.Gc.top_heap_words * 8) /. 1e6 in
  let totals = Engine.totals eng in
  let sockets = Engine.socket_refs eng in
  Engine.shutdown eng;
  check_run g ~totals ~sockets rep;
  let w = c.w in
  let med_at l i = Report.median (List.map (fun v -> List.nth v i) l) in
  Report.note rep "%s: open loop at light %.0f req/s and heavy %.0f req/s (fixed); closed loop at 1 and 16 in flight; saturation window %d"
    spec.name spec.light_rps spec.heavy_rps window;
  Report.note rep "%d rounds of %.2f s; %d requests; figures are medians over rounds"
    rounds round_s g.submitted;
  Report.add rep "setup_s" "s" setup_s;
  let pcts prefix load l =
    List.iteri
      (fun i q -> Report.add rep (Printf.sprintf "%s%d_us.%s" prefix q load) "us" (med_at l i))
      [ 50; 75; 90; 99 ]
  in
  if not trace then begin
    pcts "p" "light" !depth1;
    pcts "p" "heavy" !depth16
  end;
  pcts "open_p" "light" !light;
  pcts "open_p" "heavy" !heavy;
  (* completions/s of the busy shard: one over the median gap between
     consecutive completions, so a stolen millisecond is one slow gap
     rather than a shortfall of the whole phase *)
  Report.add rep "sat_per_s" "1/s" (1e6 /. Report.median !gap);
  let sat_rates = List.map (fun (n, t) -> float_of_int n /. Report.s_of_ns t) !sat in
  Report.add rep "sat_wall_per_s" "1/s" (Report.median sat_rates);
  Report.add rep "heap_peak_mb" "MB" heap_peak_mb;
  Report.add rep "failed_frac" "frac"
    (float_of_int rep.Report.failed /. float_of_int (Stdlib.max 1 g.submitted));
  match tr with
  | None -> ()
  | Some tr ->
      let kreq = float_of_int g.measured /. 1e3 in
      report_trace spec ~seed g tr ~spans_path rep;
      Report.add rep "trace.overhead_us" "us" (med_at !light 0 -. med_at !untraced 0);
      let med s = Samples.pct s 0.50 in
      Report.add rep "engine.backlog_max" "count" (float_of_int g.backlog_max);
      let cw, ckreq, pleaked =
        if spec.probe then reaper_probe spec ~seed ~seconds:(0.15 *. seconds) rep
        else (w, kreq, 0)
      in
      Report.add rep "engine.cancel_per_kreq.burner" "count/kreq" (float_of_int cw.cancel_burner /. ckreq);
      Report.add rep "engine.cancel_per_kreq.other" "count/kreq" (float_of_int cw.cancel_other /. ckreq);
      Report.add rep "engine.cancelled_req_us.p50" "us" (med cw.cancelled_lat);
      Report.add rep "engine.leaked" "count" (float_of_int (totals.Engine.leaked + pleaked));
      Report.add rep "apps.hit_frac" "frac" (float_of_int w.hits /. float_of_int (Stdlib.max 1 w.gets));
      Report.add rep "apps.guard_refused_frac" "frac"
        (float_of_int w.refused /. float_of_int (Stdlib.max 1 g.measured));
      Report.note rep "cache entries cancelled (request fell back): %d" w.fallbacks;
      let all_kreq = float_of_int (g.submitted - k0) /. 1e3 in
      Report.add rep "gc.minor_per_kreq" "count/kreq"
        (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) /. all_kreq);
      Report.add rep "gc.major_per_kreq" "count/kreq"
        (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. all_kreq);
      Report.add rep "driver.late_us.p50" "us" (med g.late);
      Report.add rep "driver.late_us.p99" "us" (Samples.pct g.late 0.99);
      Report.add rep "driver.stalls_per_s" "1/s" (float_of_int g.stalls /. Report.s_of_ns !meas_ns);
      (* the generator and the shard; the reaper domain runs only in the probe *)
      Report.add rep "driver.domains" "count" 2.0;
      Report.add rep "driver.cores" "count" (float_of_int (Domain.recommended_domain_count ()))

(* The admit-corpus workload runs none of the serving layers; its traced
   run reports them as 0 so every workload emits the same metric set. *)
let report_idle rep =
  List.iter
    (fun (n, u) -> Report.add rep n u 0.0)
    [
      ("serve.ingest_ns.p50", "ns"); ("serve.ingest_ns.p99", "ns");
      ("serve.ingest_words_per_req", "words"); ("engine.submit_ns.p50", "ns");
      ("engine.queued_us.p50", "us"); ("engine.queued_us.p99", "us");
      ("engine.service_us.p50", "us"); ("engine.service_us.p99", "us");
      ("runtime.exec_us.p50", "us"); ("runtime.exec_us.p99", "us");
      ("runtime.words_per_req", "words"); ("runtime.ns_per_insn", "ns");
      ("runtime.insns_per_req", "insns"); ("runtime.guards_per_req", "count");
      ("runtime.checkpoints_per_req", "count");
      ("kernel.helper_calls_per_req", "count"); ("kernel.helper_cost_per_req", "cost");
      ("engine.handoff_us.p50", "us"); ("engine.backlog_max", "count");
      ("engine.cancel_per_kreq.burner", "count/kreq");
      ("engine.cancel_per_kreq.other", "count/kreq");
      ("engine.cancelled_req_us.p50", "us"); ("engine.leaked", "count");
      ("apps.hit_frac", "frac"); ("apps.guard_refused_frac", "frac");
      ("driver.late_us.p50", "us"); ("driver.late_us.p99", "us");
      ("driver.stalls_per_s", "1/s");
    ];
  Report.add rep "driver.domains" "count" 1.0;
  Report.add rep "driver.cores" "count" (float_of_int (Domain.recommended_domain_count ()))
