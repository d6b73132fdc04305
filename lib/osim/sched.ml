(** Cooperative multi-host scheduler.

    Interleaves many {!Server} processes in simulated time: each task gets
    a quantum of instructions per turn via the non-blocking
    {!Server.step}, and a virtual clock derived from
    {!Server.instrs_per_ms} decides who runs next (the runnable task
    furthest behind in virtual time). Because {!Server.step} checkpoints
    at the same icount thresholds as a blocking run, and each host only
    ever consumes its own inbox in order, interleaved execution is
    instruction-for-instruction identical per host to running the hosts
    sequentially — which is what makes community-scale runs trustworthy as
    stand-ins for the serial experiments.

    Scheduling is O(log n) per turn: runnable tasks live in a binary
    min-heap keyed on (virtual time, task id) with lazy invalidation (a
    per-task generation counter stales old entries), and waiting tasks
    with undelivered mail sit on an explicit pending-delivery queue — no
    per-turn scan of the whole task list.

    The scheduler itself is policy-free: crashes, infections, and vetoes
    raised by monitoring hooks park the task. {!step_until} runs the core
    loop up to a virtual-time barrier and {e reifies} every event into a
    bounded {!outbox}; the driver ({!Sweeper.Defense.Sharded}) drains it
    between runs, repairs hosts and {!unpark}s them, and applies
    cross-host effects at cluster barriers (see {!Cluster}). *)

type event =
  | Filtered of string * string
      (** an input filter rejected the message at delivery: filter name,
          payload *)
  | Served of int      (** the message with this log id was fully served *)
  | Crashed of Vm.Event.fault
  | Infected of string
  | Stopped
  | Raised of exn
      (** a monitoring hook aborted execution (e.g. a VSEF veto); the
          driver owns the exception *)

type state = Runnable | Waiting | Parked of event

(** An inbox entry: the payload plus the sender provenance stamped into
    the host's network log at delivery ({!Netlog.provenance}). *)
type mail = {
  ml_src : int;  (** sending host id; [-1] = external/driver *)
  ml_seq : int;  (** per-source sequence number *)
  ml_payload : string;
}

type task = {
  sk_id : int;
  sk_server : Server.t;
  mutable sk_state : state;
  mutable sk_front : mail list;  (** inbox: pop end *)
  mutable sk_back : mail list;   (** inbox: push end, reversed *)
  mutable sk_pending : int option; (** log id of the message in flight *)
  sk_base_icount : int;
  mutable sk_vtime_ms : float;     (** per-task virtual clock *)
  mutable sk_delivered : int;
  mutable sk_served : int;
  mutable sk_span : Obs.Trace.span option;
      (** the open per-message serve span (delivery to Served/park) *)
  sk_on_deliver : (string -> unit) option;
      (** runs just before a message enters the host's network log *)
  mutable sk_hseq : int;
      (** ready-heap generation: entries carrying an older value are
          stale and skipped on pop *)
  mutable sk_queued : bool;  (** sitting on the pending-delivery queue *)
}

(* A ready-heap entry. At most one entry per task is valid at any moment:
   every push bumps the task's generation first, staling all earlier
   entries, so lazy deletion never double-runs a task. *)
type entry = { e_vt : float; e_id : int; e_seq : int; e_task : task }

type effect_ = {
  fx_vtime : float;  (** the task's virtual time when the event fired *)
  fx_task : task;
  fx_event : event;
}

(** A bounded buffer of reified scheduler events. The bound is a
    low-water mark checked between turns: a single turn may append the
    handful of events it produces past the limit, but nothing is ever
    dropped — {!step_until} returns [Backpressure] and the driver drains
    before resuming. *)
type outbox = {
  ob_limit : int;
  mutable ob_rev : effect_ list;
  mutable ob_len : int;
}

let make_outbox ~limit () = { ob_limit = max 1 limit; ob_rev = []; ob_len = 0 }
let outbox_length ob = ob.ob_len

let outbox_drain ob =
  let items = List.rev ob.ob_rev in
  ob.ob_rev <- [];
  ob.ob_len <- 0;
  items

type stop =
  | Barrier       (** every runnable task has reached the barrier time *)
  | Quiescent     (** nothing runnable, no waiting task has mail *)
  | Backpressure  (** the outbox hit its bound; drain it and resume *)

type t = {
  quantum : int;  (** instructions per scheduling turn *)
  mutable tasks : task list;  (** reverse insertion order *)
  mutable n_tasks : int;
  mutable vclock_ms : float;
  mutable steps : int;
  mutable instructions : int;
  mutable parks : int;
  mutable unparks : int;
  mutable backpressures : int;  (** [step_until] stops due to a full outbox *)
  mutable heap : entry array;   (** binary min-heap on (vtime, id) *)
  mutable heap_len : int;
  pending : task Queue.t;
      (** waiting tasks with undelivered mail, in posting order *)
}

let default_quantum = 2_000

let create ?(quantum = default_quantum) () =
  {
    quantum = max 1 quantum;
    tasks = [];
    n_tasks = 0;
    vclock_ms = 0.;
    steps = 0;
    instructions = 0;
    parks = 0;
    unparks = 0;
    backpressures = 0;
    heap = [||];
    heap_len = 0;
    pending = Queue.create ();
  }

(* ------------------------------------------------------------------ *)
(* Ready heap                                                          *)
(* ------------------------------------------------------------------ *)

let entry_less a b = a.e_vt < b.e_vt || (a.e_vt = b.e_vt && a.e_id < b.e_id)

let heap_push t e =
  if t.heap_len = Array.length t.heap then begin
    let cap = max 64 (2 * t.heap_len) in
    let bigger = Array.make cap e in
    Array.blit t.heap 0 bigger 0 t.heap_len;
    t.heap <- bigger
  end;
  let i = ref t.heap_len in
  t.heap_len <- t.heap_len + 1;
  t.heap.(!i) <- e;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if entry_less t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue_ := false
  done

let heap_remove_root t =
  t.heap_len <- t.heap_len - 1;
  if t.heap_len > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_len);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.heap_len && entry_less t.heap.(l) t.heap.(!smallest) then
        smallest := l;
      if r < t.heap_len && entry_less t.heap.(r) t.heap.(!smallest) then
        smallest := r;
      if !smallest <> !i then begin
        let tmp = t.heap.(!smallest) in
        t.heap.(!smallest) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := !smallest
      end
      else continue_ := false
    done
  end

let entry_valid e = e.e_seq = e.e_task.sk_hseq && e.e_task.sk_state = Runnable

(* The valid minimum entry, pruning stale roots; leaves it in the heap. *)
let rec peek_runnable t =
  if t.heap_len = 0 then None
  else begin
    let e = t.heap.(0) in
    if entry_valid e then Some e.e_task
    else begin
      heap_remove_root t;
      peek_runnable t
    end
  end

(* Mark [task] runnable-ready at its current virtual time. Bumping the
   generation first invalidates any earlier entry, preserving the
   one-valid-entry invariant. *)
let ready t task =
  task.sk_hseq <- task.sk_hseq + 1;
  heap_push t
    { e_vt = task.sk_vtime_ms; e_id = task.sk_id; e_seq = task.sk_hseq;
      e_task = task }

(* ------------------------------------------------------------------ *)
(* Tasks, inboxes, pending deliveries                                  *)
(* ------------------------------------------------------------------ *)

let add ?on_deliver t server =
  let task =
    {
      sk_id = t.n_tasks;
      sk_server = server;
      (* The first turn boots the process (or finds it idle) — either way
         one [step] settles the true state. *)
      sk_state = Runnable;
      sk_front = [];
      sk_back = [];
      sk_pending = None;
      sk_base_icount = server.Server.proc.Process.cpu.Vm.Cpu.icount;
      sk_vtime_ms = 0.;
      sk_delivered = 0;
      sk_served = 0;
      sk_span = None;
      sk_on_deliver = on_deliver;
      sk_hseq = 0;
      sk_queued = false;
    }
  in
  t.tasks <- task :: t.tasks;
  t.n_tasks <- t.n_tasks + 1;
  ready t task;
  task

let inbox_empty task = task.sk_front = [] && task.sk_back = []

let pop_inbox task =
  match task.sk_front with
  | msg :: rest ->
    task.sk_front <- rest;
    Some msg
  | [] -> (
    match List.rev task.sk_back with
    | msg :: rest ->
      task.sk_front <- rest;
      task.sk_back <- [];
      Some msg
    | [] -> None)

let enqueue_delivery t task =
  if
    (not task.sk_queued) && task.sk_state = Waiting
    && not (inbox_empty task)
  then begin
    task.sk_queued <- true;
    Queue.push task t.pending
  end

(* One flow id per (source host, sequence) pair: deterministic, unique
   while a source emits fewer than 2^20 messages, and collisions only
   cosmetically misdraw an arrow. *)
let flow_id ~src ~seq = (src lsl 20) lor (seq land 0xFFFFF)

let post ?(src = -1) ?(seq = 0) t task payload =
  task.sk_back <- { ml_src = src; ml_seq = seq; ml_payload = payload }
                  :: task.sk_back;
  if src >= 0 && Obs.Trace.enabled () then
    Obs.Trace.flow_start ~cat:"net" ~pid:src ~id:(flow_id ~src ~seq) "msg";
  enqueue_delivery t task

let unpark t task =
  match task.sk_state with
  | Parked _ ->
    task.sk_state <- Waiting;
    t.unparks <- t.unparks + 1;
    enqueue_delivery t task
  | _ -> ()

let vtime_ms task = task.sk_vtime_ms
let vclock_ms t = t.vclock_ms
let instructions t = t.instructions
let steps t = t.steps
let parks t = t.parks
let unparks t = t.unparks
let backpressures t = t.backpressures
let tasks t = List.rev t.tasks

(** Register scheduler-wide gauges (turns, instructions, parks/unparks,
    virtual clock) in a metrics registry. *)
let register_metrics t registry =
  let gauge name help f =
    Obs.Metrics.gauge_fn ~registry ~help name (fun () -> float_of_int (f ()))
  in
  gauge "sweeper_sched_steps" "scheduling turns taken" (fun () -> t.steps);
  gauge "sweeper_sched_instructions" "instructions run under the scheduler"
    (fun () -> t.instructions);
  gauge "sweeper_sched_parks" "tasks parked on events" (fun () -> t.parks);
  gauge "sweeper_sched_unparks" "parked tasks returned to service" (fun () ->
      t.unparks);
  gauge "sweeper_sched_backpressures" "step_until stops on a full outbox"
    (fun () -> t.backpressures);
  Obs.Metrics.gauge_fn ~registry ~help:"scheduler virtual clock (simulated ms)"
    "sweeper_sched_vclock_ms" (fun () -> t.vclock_ms)

let event_outcome = function
  | Filtered _ -> "filtered"
  | Served _ -> "served"
  | Crashed _ -> "crashed"
  | Infected _ -> "infected"
  | Stopped -> "stopped"
  | Raised _ -> "raised"

(* Close the open serve span, stamping the task's (just-accounted) virtual
   time as the end timestamp. *)
let close_span ~outcome task =
  match task.sk_span with
  | None -> ()
  | Some sp ->
    Obs.Trace.end_span ~vts_ms:task.sk_vtime_ms
      ~args:[ ("outcome", outcome) ]
      sp;
    task.sk_span <- None

(* Move inbox messages into the network log until one is admitted (filters
   reject at delivery time, like a drop at the proxy). *)
let rec deliver t emit task =
  match pop_inbox task with
  | None -> ()
  | Some { ml_src = src; ml_seq = seq; ml_payload = payload } -> (
    (match task.sk_on_deliver with Some f -> f payload | None -> ());
    match
      Process.send_message ~src ~seq ~vtime:task.sk_vtime_ms
        task.sk_server.Server.proc payload
    with
    | Error filter ->
      emit task (Filtered (filter, payload));
      deliver t emit task
    | Ok id ->
      task.sk_pending <- Some id;
      task.sk_delivered <- task.sk_delivered + 1;
      if Obs.Trace.enabled () then begin
        task.sk_span <-
          Some
            (Obs.Trace.begin_span ~cat:"sched" ~pid:task.sk_server.Server.id
               ~tid:task.sk_id ~vts_ms:task.sk_vtime_ms
               ~args:[ ("msg", string_of_int id) ]
               "serve");
        (* Close the sender→receiver arrow inside the serve span. *)
        if src >= 0 then
          Obs.Trace.flow_finish ~cat:"net" ~pid:task.sk_server.Server.id
            ~tid:task.sk_id ~vts_ms:task.sk_vtime_ms ~id:(flow_id ~src ~seq)
            "msg"
      end;
      task.sk_state <- Runnable;
      ready t task)

let drain_pending t emit =
  while not (Queue.is_empty t.pending) do
    let task = Queue.pop t.pending in
    task.sk_queued <- false;
    if task.sk_state = Waiting && not (inbox_empty task) then
      deliver t emit task
  done

let account t task before =
  let cpu = task.sk_server.Server.proc.Process.cpu in
  t.instructions <- t.instructions + max 0 (cpu.Vm.Cpu.icount - before);
  task.sk_vtime_ms <-
    float_of_int (cpu.Vm.Cpu.icount - task.sk_base_icount)
    /. float_of_int Server.instrs_per_ms;
  if task.sk_vtime_ms > t.vclock_ms then t.vclock_ms <- task.sk_vtime_ms

let step_task t emit task =
  let before = task.sk_server.Server.proc.Process.cpu.Vm.Cpu.icount in
  let park ev =
    t.parks <- t.parks + 1;
    close_span ~outcome:(event_outcome ev) task;
    task.sk_state <- Parked ev;
    emit task ev
  in
  (match Server.step ~fuel:t.quantum task.sk_server with
  | exception e ->
    account t task before;
    t.steps <- t.steps + 1;
    park (Raised e)
  | outcome ->
    account t task before;
    t.steps <- t.steps + 1;
    (match outcome with
    | Server.Yielded -> ready t task
    | Server.Ended Server.Idle ->
      (match task.sk_pending with
      | Some id ->
        task.sk_pending <- None;
        task.sk_served <- task.sk_served + 1;
        close_span ~outcome:"served" task;
        emit task (Served id)
      | None -> ());
      task.sk_state <- Waiting;
      deliver t emit task
    | Server.Ended Server.Stopped -> park Stopped
    | Server.Ended (Server.Crashed f) -> park (Crashed f)
    | Server.Ended (Server.Infected cmd) -> park (Infected cmd)))

let has_runnable_before t ~until =
  (not (Queue.is_empty t.pending))
  ||
  match peek_runnable t with
  | Some task -> task.sk_vtime_ms < until
  | None -> false

let quiescent t = Queue.is_empty t.pending && peek_runnable t = None

(** The pure driver core: run turns while some runnable task is behind the
    virtual-time barrier [until], reifying every event into [outbox] (when
    given). Stops at the first of: all runnable tasks at/past the barrier
    ([Barrier]), nothing left to do ([Quiescent]), or the outbox reaching
    its bound ([Backpressure] — no event is ever dropped; drain and call
    again). With [until = infinity] and no outbox this is exactly
    {!run}. *)
let step_until ?outbox t ~until =
  let emit task ev =
    match outbox with
    | Some ob ->
      ob.ob_rev <-
        { fx_vtime = task.sk_vtime_ms; fx_task = task; fx_event = ev }
        :: ob.ob_rev;
      ob.ob_len <- ob.ob_len + 1
    | None -> ()
  in
  let full () =
    match outbox with Some ob -> ob.ob_len >= ob.ob_limit | None -> false
  in
  let rec loop () =
    drain_pending t emit;
    if full () then begin
      t.backpressures <- t.backpressures + 1;
      Backpressure
    end
    else
      match peek_runnable t with
      | Some task when task.sk_vtime_ms < until ->
        heap_remove_root t;
        step_task t emit task;
        loop ()
      | Some _ -> Barrier
      | None -> if Queue.is_empty t.pending then Quiescent else loop ()
  in
  loop ()

(** Run until quiescent: no task is runnable and no waiting task has mail.
    Parked tasks stay parked; their remaining inbox is never delivered. *)
let run t =
  match step_until t ~until:infinity with
  | Quiescent -> ()
  | Barrier | Backpressure -> assert false (* no barrier, no outbox *)
