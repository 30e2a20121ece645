module Vm = Kflex_runtime.Vm
module Heap = Kflex_runtime.Heap
module Hook = Kflex_kernel.Hook
module Packet = Kflex_kernel.Packet
module Helpers = Kflex_kernel.Helpers
module Socket = Kflex_kernel.Socket
module Cost = Kflex_kernel.Cost
module Map_ = Kflex_kernel.Map

type mode = [ `Deterministic | `Threaded ]

type handle = {
  aid : int;
  aname : string;
  ahook : Hook.kind;
  instances : Kflex.loaded array; (* one per shard *)
}

type run_result = {
  verdict : int64;
  executed : int;
  cancelled : int;
  cost : int;
  outcomes : Vm.outcome list;
}

type shard = {
  sid : int;
  prandom : Kflex_runtime.U64.cell; (* per-shard bpf_get_prandom_u32 stream *)
  clock : Kflex_runtime.U64.cell; (* per-shard bpf_ktime_get_ns virtual clock *)
  stats : Vm.stats; (* per-shard; only this shard writes it *)
  mutable events : int;
  mutable cancelled : int;
  mutable leaked : int;
  verdicts : (int64, int) Hashtbl.t;
  mutable vclock_ns : float; (* cost-derived timeline for the reaper *)
  seen_gen : int Atomic.t; (* last registry generation this shard observed *)
  (* threaded mode *)
  queue : (Hook.kind * Packet.t * (run_result -> unit) option) Queue.t;
  m : Mutex.t;
  cv : Condition.t;
  mutable busy : bool;
  mutable domain : unit Domain.t option;
}

type t = {
  nshards : int;
  mode : mode;
  quantum : int option; (* default per-invocation cost quantum *)
  deadline_ns : float option; (* reaper deadline per invocation *)
  shards : shard array;
  reaper : Reaper.t;
  reg_m : Mutex.t; (* serialises attach/detach/replace *)
  snapshot : handle Chain.t Atomic.t; (* what shards execute *)
  mutable next_aid : int;
  running : bool Atomic.t;
  mutable reaper_domain : unit Domain.t option;
  mutable shared : Map_.t list;
      (* engine-owned cross-shard maps, in share order; every subsequent
         attach registers them (fds 3, 4, …) before the tenant's own
         [configure] runs. Appended under [reg_m]. *)
}

(* splitmix64 finaliser: decorrelate per-shard streams drawn from one seed *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make_shard ~seed sid =
  {
    sid;
    prandom =
      Kflex_runtime.U64.cell
        (Int64.logor (mix64 (Int64.add seed (Int64.of_int (sid + 1)))) 1L);
    clock = Kflex_runtime.U64.cell 0L;
    stats = Vm.fresh_stats ();
    events = 0;
    cancelled = 0;
    leaked = 0;
    verdicts = Hashtbl.create 8;
    vclock_ns = 0.0;
    seen_gen = Atomic.make 0;
    queue = Queue.create ();
    m = Mutex.create ();
    cv = Condition.create ();
    busy = false;
    domain = None;
  }

(* --- event execution --------------------------------------------------- *)

let record_verdict shard v =
  let n = try Hashtbl.find shard.verdicts v with Not_found -> 0 in
  Hashtbl.replace shard.verdicts v (n + 1)

(* Run one chain entry on a shard: one [Kflex.run_packet] call, under
   whichever watchdog regime the engine was built with. Deterministic +
   deadline: the shard itself polls the reaper from the VM's
   cancellation-site hook, with "now" derived from cost charged so far —
   byte-identical schedules across runs. Threaded + deadline: the reaper
   domain scans on the wall clock and flips the extension's cancel flag
   asynchronously, like a sibling CPU would. No deadline: nothing is armed
   and nothing is allocated for the watchdog. *)
let exec_entry t shard (inst : Kflex.loaded) pkt =
  let start_cost = Vm.total_cost shard.stats in
  let tok, on_site =
    match (t.deadline_ns, t.mode) with
    | None, _ -> (None, None)
    | Some dl, `Deterministic ->
        let hit = ref false in
        let tok =
          Reaper.start_exec t.reaper ~now:shard.vclock_ns ~deadline_ns:dl
            ~cancel:(fun () -> hit := true)
        in
        let on_site () =
          let spent =
            float_of_int (Vm.total_cost shard.stats - start_cost)
          in
          Reaper.scan t.reaper ~now:(shard.vclock_ns +. (spent *. Cost.insn_ns));
          !hit
        in
        (Some tok, Some on_site)
    | Some dl, `Threaded ->
        ( Some
            (Reaper.start_exec t.reaper
               ~now:(Unix.gettimeofday () *. 1e9)
               ~deadline_ns:dl
               ~cancel:(fun () -> Vm.cancel inst.Kflex.ext)),
          None )
  in
  let outcome =
    Kflex.run_packet inst ~cpu:shard.sid ~stats:shard.stats ?on_site pkt
  in
  (match tok with Some tok -> Reaper.end_exec t.reaper tok | None -> ());
  let cost = Vm.total_cost shard.stats - start_cost in
  shard.vclock_ns <- shard.vclock_ns +. (float_of_int cost *. Cost.insn_ns);
  (* Re-arm after any cancellation (the facade leaves the flag set and the
     paper's runtime unloads the extension; a multi-tenant engine instead
     treats cancellation as per-invocation). Also absorbs the benign race
     where the threaded reaper fires just after an invocation completed. *)
  if Vm.cancelled inst.Kflex.ext then Vm.reset_cancel inst.Kflex.ext;
  (outcome, cost)

let exec_event t shard snap ~hook pkt =
  let chain = Chain.get snap hook in
  let verdict = ref (Hook.pass_verdict hook) in
  let executed = ref 0 in
  let cancelled = ref 0 in
  let cost = ref 0 in
  let outcomes = ref [] in
  let n = Array.length chain in
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ && !i < n do
    let inst = chain.(!i).instances.(shard.sid) in
    let outcome, c = exec_entry t shard inst pkt in
    incr executed;
    cost := !cost + c;
    outcomes := outcome :: !outcomes;
    (match outcome with
    | Vm.Finished v -> verdict := v
    | Vm.Cancelled { ledger_leaked; ret; _ } ->
        incr cancelled;
        shard.cancelled <- shard.cancelled + 1;
        shard.leaked <- shard.leaked + ledger_leaked;
        verdict := ret);
    continue_ := Chain.continue_on hook !verdict;
    incr i
  done;
  shard.events <- shard.events + 1;
  (* Event boundary = quiescent state: this shard holds no reference into
     any shared RCU snapshot between events, so announce the epoch and let
     the map reclaim retired versions every CPU has moved past. *)
  List.iter
    (fun m ->
      if Map_.kind m = Map_.Rcu_shared then
        Map_.rcu_quiesce m ~cpu:shard.sid)
    t.shared;
  record_verdict shard !verdict;
  {
    verdict = !verdict;
    executed = !executed;
    cancelled = !cancelled;
    cost = !cost;
    outcomes = List.rev !outcomes;
  }

(* --- threaded workers --------------------------------------------------- *)

let worker t shard =
  let rec loop () =
    Mutex.lock shard.m;
    while Queue.is_empty shard.queue && Atomic.get t.running do
      Condition.wait shard.cv shard.m
    done;
    match Queue.take_opt shard.queue with
    | None ->
        (* shutting down with an empty queue *)
        Mutex.unlock shard.m
    | Some (hook, pkt, on_done) ->
        shard.busy <- true;
        Mutex.unlock shard.m;
        let snap = Atomic.get t.snapshot in
        Atomic.set shard.seen_gen (Chain.generation snap);
        let r = exec_event t shard snap ~hook pkt in
        (match on_done with Some f -> f r | None -> ());
        Mutex.lock shard.m;
        shard.busy <- false;
        Mutex.unlock shard.m;
        loop ()
  in
  loop ()

let reaper_loop t =
  while Atomic.get t.running do
    Unix.sleepf 0.0005;
    Reaper.scan t.reaper ~now:(Unix.gettimeofday () *. 1e9)
  done

(* --- lifecycle ---------------------------------------------------------- *)

let create ?(shards = 1) ?(mode = `Deterministic) ?quantum ?deadline_ns
    ?(seed = 0x6b666c6578L) () =
  if shards < 1 then invalid_arg "Engine.create: shards < 1";
  let t =
    {
      nshards = shards;
      mode;
      quantum;
      deadline_ns;
      shards = Array.init shards (make_shard ~seed);
      reaper = Reaper.create ();
      reg_m = Mutex.create ();
      snapshot = Atomic.make Chain.empty;
      next_aid = 0;
      running = Atomic.make true;
      reaper_domain = None;
      shared = [];
    }
  in
  (match mode with
  | `Deterministic -> ()
  | `Threaded ->
      Array.iter
        (fun s -> s.domain <- Some (Domain.spawn (fun () -> worker t s)))
        t.shards;
      if deadline_ns <> None then
        t.reaper_domain <- Some (Domain.spawn (fun () -> reaper_loop t)));
  t

let shards t = t.nshards
let mode t = t.mode
let reaper t = t.reaper
let epoch t = Chain.generation (Atomic.get t.snapshot)
let chain_length t hook = Chain.length (Atomic.get t.snapshot) hook

let shard_helpers shard =
  [
    ("bpf_get_prandom_u32", Vm.prandom_helper shard.prandom);
    ("bpf_ktime_get_ns", Vm.ktime_helper shard.clock);
  ]

let seed_shard t ~shard ?(vtime = 0L) prandom =
  let s = t.shards.(shard) in
  Kflex_runtime.U64.cell_set s.prandom (Int64.logor prandom 1L);
  Kflex_runtime.U64.cell_set s.clock vtime

(* Quiescence: an attach/detach/replace publishes generation [g]; an old
   snapshot can only be in use by a shard mid-event. Deterministic mode runs
   events synchronously inside run_packet, so publication alone is
   quiescence. Threaded mode waits until every shard has either observed
   [g] or is provably idle (empty queue, not executing) — it will read the
   new snapshot before its next event. *)
let quiesce t g =
  (match t.mode with
  | `Deterministic ->
      Array.iter (fun s -> Atomic.set s.seen_gen g) t.shards
  | `Threaded ->
      Array.iter
        (fun s ->
          let rec wait () =
            if Atomic.get s.seen_gen >= g then ()
            else begin
              let idle =
                Mutex.protect s.m (fun () ->
                    Queue.is_empty s.queue && not s.busy)
              in
              if idle then ()
              else begin
                Unix.sleepf 0.0002;
                wait ()
              end
            end
          in
          wait ())
        t.shards);
  (* Registry quiescence doubles as an RCU grace period: once every shard
     has observed generation [g] (or is idle), no reader still holds a
     snapshot retired before the publication — reclaim them all. *)
  List.iter Map_.rcu_synchronize t.shared

(* Engine-owned shared maps.  Sharing must precede the attaches that use
   the map: every later attach registers the shared maps — in share order,
   so they get the same fds (3, 4, …) on every shard — into the instance's
   per-shard registry before the tenant's own [configure] runs.  The
   returned fd is what programs pass to the map helpers. *)
let share_map t m =
  Mutex.protect t.reg_m (fun () ->
      let fd = Int64.of_int (3 + List.length t.shared) in
      t.shared <- t.shared @ [ m ];
      fd)

let shared_maps t = t.shared

let build_handle t ?name ?mode ?options ?globals_size ?quantum ?heap_size
    ?kbase ?backend ?deny_helpers ?configure ~hook prog =
  match Kflex.admit ?mode ?options ?heap_size ?deny_helpers ?backend ~hook prog with
  | Error e -> Error e
  | Ok admitted ->
      let aid = t.next_aid in
      t.next_aid <- t.next_aid + 1;
      let aname =
        match name with Some n -> n | None -> Printf.sprintf "ext%d" aid
      in
      let quantum = match quantum with Some q -> Some q | None -> t.quantum in
      let instances =
        Array.map
          (fun shard ->
            let heap =
              Option.map (fun size -> Heap.create ?kbase ~size ()) heap_size
            in
            let kernel = Helpers.create () in
            List.iter
              (fun m ->
                ignore (Map_.register (Helpers.maps kernel) m : int64))
              t.shared;
            let inst =
              Kflex.instantiate ?heap ?globals_size ?quantum
                ~extra_helpers:(shard_helpers shard) ~kernel admitted
            in
            (match configure with
            | Some f -> f ~shard:shard.sid kernel heap
            | None -> ());
            inst)
          t.shards
      in
      Ok { aid; aname; ahook = hook; instances }

let attach t ?name ?mode ?options ?globals_size ?quantum ?heap_size ?kbase
    ?backend ?deny_helpers ?configure ~hook prog =
  Mutex.protect t.reg_m (fun () ->
      match
        build_handle t ?name ?mode ?options ?globals_size ?quantum ?heap_size
          ?kbase ?backend ?deny_helpers ?configure ~hook prog
      with
      | Error e -> Error e
      | Ok h ->
          let snap = Chain.attach (Atomic.get t.snapshot) hook h in
          Atomic.set t.snapshot snap;
          quiesce t (Chain.generation snap);
          Ok h)

let detach t h =
  Mutex.protect t.reg_m (fun () ->
      let snap, removed =
        Chain.detach (Atomic.get t.snapshot) h.ahook (fun a -> a.aid = h.aid)
      in
      if removed <> [] then begin
        Atomic.set t.snapshot snap;
        (* the epoch wait: no shard still executes against the departed
           heap once every shard passed the new generation *)
        quiesce t (Chain.generation snap)
      end)

let replace t h ?name ?mode ?options ?globals_size ?quantum ?heap_size ?kbase
    ?backend ?deny_helpers ?configure prog =
  Mutex.protect t.reg_m (fun () ->
      match
        build_handle t ?name ?mode ?options ?globals_size ?quantum ?heap_size
          ?kbase ?backend ?deny_helpers ?configure ~hook:h.ahook prog
      with
      | Error e -> Error e
      | Ok h' -> (
          let snap, old =
            Chain.replace (Atomic.get t.snapshot) h.ahook
              (fun a -> a.aid = h.aid)
              h'
          in
          match old with
          | None -> invalid_arg "Engine.replace: handle not attached"
          | Some _ ->
              Atomic.set t.snapshot snap;
              quiesce t (Chain.generation snap);
              Ok h'))

let handle_name h = h.aname
let instance h ~shard = h.instances.(shard)

(* --- event delivery ----------------------------------------------------- *)

(* Flow hash: same 5-tuple-ish mix every run, so a flow's events always land
   on the same shard (per-flow state lives in that shard's heaps) and shard
   placement is reproducible. *)
let shard_of t (pkt : Packet.t) =
  let h =
    (pkt.Packet.src_port * 0x9e3779b1)
    lxor (pkt.Packet.dst_port * 0x85ebca77)
    lxor (Int64.to_int (Packet.proto_code pkt.Packet.proto) * 0xc2b2ae35)
  in
  (h land max_int) mod t.nshards

let run_packet t ?(hook = Hook.Xdp) pkt =
  if t.mode <> `Deterministic then
    invalid_arg "Engine.run_packet: deterministic mode only (use submit)";
  let snap = Atomic.get t.snapshot in
  let s = t.shards.(shard_of t pkt) in
  Atomic.set s.seen_gen (Chain.generation snap);
  exec_event t s snap ~hook pkt

let submit t ?(hook = Hook.Xdp) ?on_done pkt =
  if t.mode <> `Threaded then
    invalid_arg "Engine.submit: threaded mode only (use run_packet)";
  let s = t.shards.(shard_of t pkt) in
  Mutex.protect s.m (fun () ->
      Queue.push (hook, pkt, on_done) s.queue;
      Condition.signal s.cv)

let drain t =
  match t.mode with
  | `Deterministic -> ()
  | `Threaded ->
      Array.iter
        (fun s ->
          let rec wait () =
            let idle =
              Mutex.protect s.m (fun () -> Queue.is_empty s.queue && not s.busy)
            in
            if not idle then begin
              Unix.sleepf 0.0002;
              wait ()
            end
          in
          wait ())
        t.shards

let shutdown t =
  if Atomic.get t.running then begin
    drain t;
    Atomic.set t.running false;
    Array.iter
      (fun s ->
        Mutex.protect s.m (fun () -> Condition.broadcast s.cv);
        match s.domain with
        | Some d ->
            Domain.join d;
            s.domain <- None
        | None -> ())
      t.shards;
    match t.reaper_domain with
    | Some d ->
        Domain.join d;
        t.reaper_domain <- None
    | None -> ()
  end

(* --- observation -------------------------------------------------------- *)

type totals = {
  events : int;
  cancelled : int;
  leaked : int;
  verdicts : (int64 * int) list; (* sorted by verdict *)
  stats : Vm.stats; (* merged across shards *)
}

let shard_stats t shard = t.shards.(shard).stats
let shard_events t shard = t.shards.(shard).events

(* Aggregation is read-side only: shards mutate nothing but their own
   records on the hot path; totals fold copies after a drain. *)
let totals t =
  let stats = Vm.fresh_stats () in
  let verdicts = Hashtbl.create 8 in
  let events = ref 0 and cancelled = ref 0 and leaked = ref 0 in
  Array.iter
    (fun (s : shard) ->
      events := !events + s.events;
      cancelled := !cancelled + s.cancelled;
      leaked := !leaked + s.leaked;
      stats.Vm.insns <- stats.Vm.insns + s.stats.Vm.insns;
      stats.Vm.guards <- stats.Vm.guards + s.stats.Vm.guards;
      stats.Vm.checkpoints <- stats.Vm.checkpoints + s.stats.Vm.checkpoints;
      stats.Vm.helper_calls <- stats.Vm.helper_calls + s.stats.Vm.helper_calls;
      stats.Vm.helper_cost <- stats.Vm.helper_cost + s.stats.Vm.helper_cost;
      Hashtbl.iter
        (fun v n ->
          let c = try Hashtbl.find verdicts v with Not_found -> 0 in
          Hashtbl.replace verdicts v (c + n))
        s.verdicts)
    t.shards;
  {
    events = !events;
    cancelled = !cancelled;
    leaked = !leaked;
    verdicts =
      Hashtbl.fold (fun v n acc -> (v, n) :: acc) verdicts []
      |> List.sort compare;
    stats;
  }

let socket_refs t =
  let snap = Atomic.get t.snapshot in
  let sum = ref 0 in
  List.iter
    (fun hook ->
      Array.iter
        (fun h ->
          Array.iter
            (fun (inst : Kflex.loaded) ->
              sum :=
                !sum + Socket.total_refs (Helpers.sockets inst.Kflex.kernel))
            h.instances)
        (Chain.get snap hook))
    [ Hook.Xdp; Hook.Sk_skb; Hook.Lsm ];
  !sum
