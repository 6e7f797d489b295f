(* A DSCheck-style systematic scheduler.

   A scenario [setup] builds shared state (through {!Shadow_atomic}
   cells), spawns a fixed set of threads, and registers final
   assertions. Every atomic operation a thread performs is reified as an
   effect; the scheduler executes operations one at a time and explores
   every interleaving by depth-first search over the choice of which
   ready thread runs next, replaying the schedule prefix on each run
   (one-shot continuations cannot be forked, so backtracking re-executes
   [setup] from scratch — scenarios must be deterministic).

   Spin loops are handled by a targeted reduction: {!relax} (the
   instrumented [cpu_relax]) parks the calling thread until any other
   thread performs a write. Re-reading an unchanged cell is a no-op, so
   skipping the schedules where a spinner re-runs its read against
   unchanged state loses nothing — and it makes unbounded protocol spins
   (the owner waiting out a thief's transient EMPTY, a join waiting for
   DONE) finite. A state where every live thread is parked is reported
   as a {!Deadlock}. *)

type stats = { schedules : int; max_depth : int }

exception Deadlock of string
exception Schedule_limit of int

exception Violation of string * string
(** [Violation (message, schedule)]: an assertion failed or a thread
    raised; [schedule] is the interleaving that got there, rendered as
    ["t0:push.set t1:steal.cas ..."]. *)

type resume =
  | Resume : {
      op : unit -> 'a;
      write : bool;
      k : ('a, unit) Effect.Deep.continuation;
    }
      -> resume
  | Unparked of (unit, unit) Effect.Deep.continuation
  | Invalid

type status = Ready | Parked | Finished

type thread = {
  tid : int;
  mutable resume : resume;
  mutable status : status;
  mutable label : string; (* pending operation, for schedule rendering *)
}

type _ Effect.t +=
  | Op : { label : string; write : bool; op : unit -> 'a } -> 'a Effect.t
  | Relax : unit Effect.t

let threads : thread list ref = ref []
let current : thread option ref = ref None
let finals : (unit -> unit) list ref = ref []
let trace : (int * string) list ref = ref []

let render_trace () =
  List.rev !trace
  |> List.map (fun (tid, l) -> Printf.sprintf "t%d:%s" tid l)
  |> String.concat " "

let exec ~label ~write op =
  match !current with
  | None -> op () (* setup / final code: execute directly *)
  | Some _ -> Effect.perform (Op { label; write; op })

let self () = match !current with Some t -> t.tid | None -> -1

let relax () =
  match !current with None -> () | Some _ -> Effect.perform Relax

let wake_all () =
  List.iter (fun t -> if t.status = Parked then t.status <- Ready) !threads

let final f = finals := f :: !finals

let handler t =
  {
    Effect.Deep.retc = (fun () -> t.status <- Finished);
    exnc =
      (fun e ->
        t.status <- Finished;
        raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Op { label; write; op } ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                t.label <- label;
                t.resume <- Resume { op; write; k })
        | Relax ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                t.label <- "park";
                t.status <- Parked;
                t.resume <- Unparked k)
        | _ -> None);
  }

(* Register a thread and immediately run it up to its first reified
   operation. The pure prefix before a thread's first atomic access is
   invisible to other threads (all shared state goes through the
   backend), so executing it eagerly removes a semantically-empty
   "start" scheduling decision per thread from the exploration. *)
let spawn f =
  (match !current with
  | None -> ()
  | Some _ -> invalid_arg "Wool_check.Sched.spawn: only from setup");
  let t =
    { tid = List.length !threads; resume = Invalid; status = Ready;
      label = "start" }
  in
  threads := !threads @ [ t ];
  current := Some t;
  Fun.protect
    ~finally:(fun () -> current := None)
    (fun () -> Effect.Deep.match_with f () (handler t))

(* Run thread [t]'s pending operation, then up to the point where its
   following operation is reified — so every scheduling decision sits
   exactly between two atomic operations. *)
let step t =
  current := Some t;
  Fun.protect
    ~finally:(fun () -> current := None)
    (fun () ->
      match t.resume with
      | Resume { op; write; k } ->
          t.resume <- Invalid;
          trace := (t.tid, t.label) :: !trace;
          let v = op () in
          if write then wake_all ();
          Effect.Deep.continue k v
      | Unparked k ->
          t.resume <- Invalid;
          trace := (t.tid, "wake") :: !trace;
          Effect.Deep.continue k ()
      | Invalid -> assert false)

let run ?(max_schedules = 3_000_000) setup =
  (* DFS stack, deepest decision first: (chosen tid, unexplored tids). *)
  let stack = ref [] in
  let schedules = ref 0 in
  let max_depth = ref 0 in
  let exhausted = ref false in
  while not !exhausted do
    incr schedules;
    if !schedules > max_schedules then raise (Schedule_limit max_schedules);
    threads := [];
    finals := [];
    trace := [];
    setup ();
    let plan = Array.of_list (List.rev !stack) in
    let depth = ref 0 in
    (try
       let rec loop () =
         match List.filter (fun t -> t.status = Ready) !threads with
         | [] ->
             if List.exists (fun t -> t.status = Parked) !threads then
               raise (Deadlock (render_trace ()))
         | ready ->
             let t =
               if !depth < Array.length plan then begin
                 (* replaying the prefix of a previously explored run *)
                 let chosen, _ = plan.(!depth) in
                 match List.find_opt (fun t -> t.tid = chosen) ready with
                 | Some t -> t
                 | None ->
                     failwith
                       "Wool_check.Sched: replay diverged (scenario setup is \
                        not deterministic)"
               end
               else begin
                 let t = List.hd ready in
                 stack :=
                   (t.tid, List.map (fun t -> t.tid) (List.tl ready)) :: !stack;
                 t
               end
             in
             incr depth;
             step t;
             loop ()
       in
       loop ();
       if !depth > !max_depth then max_depth := !depth;
       List.iter (fun f -> f ()) (List.rev !finals)
     with
    | Deadlock _ | Schedule_limit _ | Violation _ as e -> raise e
    | e -> raise (Violation (Printexc.to_string e, render_trace ())));
    let rec backtrack = function
      | [] ->
          exhausted := true;
          []
      | (_, []) :: rest -> backtrack rest
      | (_, next :: todo) :: rest -> (next, todo) :: rest
    in
    stack := backtrack !stack
  done;
  { schedules = !schedules; max_depth = !max_depth }
