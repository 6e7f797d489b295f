(* Protocol body for the direct task stack. This file is not compiled on
   its own: the build prepends a prelude binding [Ts], [Layout], [A]
   (the atomic backend, see atomic_ops.ml) and [initial_slots] (the slot
   array's starting length) and compiles the result three
   times: as [Wool_deque.Direct_stack] (a prelude-defined [A]; the unit
   tests' stack), as the [Ds] submodule of the pool's own unit (the same
   prelude; see lib/runtime/dune), and as
   [Wool_check.Direct_stack_checked] (model checking,
   [A = Shadow_atomic]). Keep it free of direct [Atomic]/[Domain] use.
   The exception and [publicity] are [Ts]'s, so all three share them. *)

exception Pool_overflow = Ts.Pool_overflow

type 'a slot = {
  state : Ts.t A.t;
      (* individually padded: adjacent descriptors' state words never
         share a cache line, so a thief CASing slot [b] cannot steal the
         line under the owner touching slot [b']. *)
  mutable payload : 'a;
  mutable pushed_public : bool; (* owner-private: which join path to take *)
  mutable result : Ts.outcome;
      (* a stolen task's outcome: the thief writes it before its DONE,
         the owner's join empties it (see [set_result]) *)
}

type publicity = Ts.publicity = All_private | All_public | Adaptive of int

(* Owner-private working set: every field only worker [owner] reads or
   writes, batched into one cache-line-padded block so owner stores never
   invalidate a line a thief has cached. *)
type 'a owner = {
  mutable top : int;
  mutable public_limit : int; (* pushes below it are public *)
  mutable rearm : bool;
      (* a privatize emptied the public window below [bot]: the next push
         publishes itself and re-arms the trip wire (see
         [maybe_privatize]) *)
  mutable consec_public_inlines : int;
  mutable last_activity : int;
      (* thief-activity snapshot ([fb] + steal count) at
         the owner's previous {!steal_pressure} poll; the poll reports
         pressure when the sum has moved since *)
  (* observability hooks; invoked only on the (rare) publish / privatize
     transitions, never on the private fast path *)
  mutable on_publish : unit -> unit;
  mutable on_privatize : unit -> unit;
  (* The fast windows (see [refresh]): [push_private] takes the push at
     [top] iff [public_limit <= top < hi], and [pop_private] the pop of
     [top - 1] iff [0 <= top - 1 < hi]. [hi] is the slot array's length
     capped by [ceiling], and by [public_limit] while [rearm] is pending,
     which empties the push window. *)
  mutable ceiling : int;
      (* the layer above's cap on [hi]: [capacity] on a bare stack; the
         pool's high-water depth, or 0 while a gate of its own is
         closed (see [set_ceiling] and [close]) *)
  mutable hi : int;
}

(* Thief-shared words live in individually padded atomics; the top-level
   record's only mutable field is [slots], written once per grow, so its
   cache lines are read-shared and almost never invalidated.

   The slot array grows on demand: it starts at [initial_slots] (or the
   capacity, if smaller), and a push that reaches its length replaces it
   with one twice as long, up to [capacity] (see [grow]). The new array
   holds the same slot records below the old length, so the owner, a
   thief and the result cells all meet in one record per index whichever
   array they read it through. The owner stores the new array in [slots]
   with a plain write before the push that needs it; a thief reads
   [slots] once per attempt, before [bot], and may get the old array:
   below its length, it names the same records as the new one; at or
   past it, the attempt fails (counted in [fb]) as on an empty stack.
   So a stale array is only short, never wrong, and no ordering is
   needed beyond OCaml's guarantee that a domain reading a pointer to a
   freshly built array sees it initialised. A thief that got an index
   through a queued pool's deque read the owner's deque push, which
   follows the grow, so it reads the grown array. *)
type 'a t = {
  mutable slots : 'a slot array;
  capacity : int; (* the most slots [slots] may grow to *)
  dummy : 'a;
  publicity : publicity;
  own : 'a owner; (* padded; owner-private *)
  botw : int A.t;
      (* packed [steals lsl 32 | bot]: the successful-steal path advances
         [bot] and counts the steal with one plain store instead of a
         store plus a fetch-and-add (see [steal]). Implicit ownership as
         before: only whoever holds the task at [bot] may move it. *)
  trip_index : int A.t; (* stealing at/past this index requests
                           publication; [disarmed] = never *)
  publish_request : bool A.t;
  fb : int A.t;
      (* steal attempts that took nothing (failed or backed off): one
         thief fetch-and-add each, on a line shared with nothing else;
         read only by [steal_pressure] *)
}

let bot_mask = 0xFFFFFFFF
let disarmed = max_int
let no_hook () = ()

(* Recompute the fast windows after anything they fold in changed: the
   public window or [rearm] (publish, privatize, re-arm), the slot
   array (grow) or the [ceiling]. Owner only. *)
let refresh t =
  let own = t.own in
  let hi = Int.min own.ceiling (Array.length t.slots) in
  own.hi <- (if own.rearm then Int.min hi own.public_limit else hi)

(* How many consecutive inlined public joins before the owner decides the
   public window is wider than steal pressure warrants and privatises. *)
let privatize_threshold = 16

let new_slot dummy =
  {
    state = A.make_padded Ts.empty;
    payload = dummy;
    pushed_public = false;
    result = Ts.no_outcome;
  }

let create ?(capacity = 65536) ?(publicity = Adaptive 4) ~dummy () =
  if capacity <= 0 || capacity > bot_mask then
    invalid_arg "Direct_stack.create: capacity";
  (match publicity with
  | Adaptive w when w <= 0 ->
      invalid_arg "Direct_stack.create: adaptive window must be positive"
  | All_private | All_public | Adaptive _ -> ());
  let slots = Array.init (min capacity initial_slots) (fun _ -> new_slot dummy) in
  let public_limit =
    match publicity with
    | All_private -> 0
    | All_public -> capacity
    | Adaptive w -> min capacity w
  in
  let trip =
    match publicity with
    | All_private | All_public -> disarmed
    | Adaptive _ -> public_limit - 1
  in
  let t =
    {
      slots;
      capacity;
      dummy;
      publicity;
      own =
        Layout.copy_as_padded
          {
            top = 0;
            public_limit;
            rearm = false;
            consec_public_inlines = 0;
            last_activity = 0;
            on_publish = no_hook;
            on_privatize = no_hook;
            ceiling = capacity;
            hi = 0;
          };
      botw = A.make_padded 0;
      trip_index = A.make_padded trip;
      publish_request = A.make_padded false;
      fb = A.make_padded 0;
    }
  in
  refresh t;
  t

(* The layer above caps both fast windows at [c]: it sends every push
   and pop at or above [c] to the slow path, and with [c = 0] all of
   them. Owner only. *)
let set_ceiling t c =
  t.own.ceiling <- c;
  refresh t

(* [set_ceiling t 0] from any domain. It writes [ceiling] and [hi] and
   reads nothing, so whatever an owner refresh racing it writes, [hi]
   is one the owner computed (at most the slot array's length) or 0: a
   window the owner may have reopened, never a wrong one. *)
let close t =
  t.own.ceiling <- 0;
  t.own.hi <- 0

let set_event_hooks t ~on_publish ~on_privatize =
  t.own.on_publish <- on_publish;
  t.own.on_privatize <- on_privatize

let[@inline] depth t = t.own.top
let[@inline] bot_index t = A.get t.botw land bot_mask
let[@inline] steal_count t = A.get t.botw lsr 32

(* Owner-side hunger poll, for lazy splitting layers above the runtime: are
   thieves trying to take work from this stack right now?

   Two signals, both free to read. A sprung trip wire ([publish_request])
   means a steal reached the public frontier — certain hunger. But the wire
   alone cannot bootstrap a lazy splitter: a leaf holding all remaining
   work {e privately} gives thieves nothing to steal, so no steal ever
   springs the wire. Those thieves still leave tracks — every probe against
   this stack that takes nothing bumps [fb], and every success bumps the
   steal count — so the poll also reports pressure whenever that activity
   sum moved since the owner last asked. Cost: two atomic loads, and an
   owner-private store only when the answer is [true].

   The first poll after a burst of unrelated steal traffic may report one
   spurious [true] (the snapshot is only updated here); the cost is a
   single extra split, which the splitter would soon owe anyway if thieves
   are around. With one worker there are no thieves, both signals stay
   flat, and the poll is always [false]. *)
let[@inline] steal_pressure t =
  A.get t.publish_request
  ||
  let activity = A.get t.fb + steal_count t in
  let own = t.own in
  activity <> own.last_activity
  && begin
       own.last_activity <- activity;
       true
     end

(* Owner-side servicing of a thief's trip-wire notification: extend the
   public region by the window and publish any live private descriptors
   that fall inside it. Publication is a release store of TASK on a
   descriptor whose state no thief can currently be touching (private
   descriptors keep their state word EMPTY, which thieves never CAS). *)
let[@inline] service_publish t =
  match t.publicity with
  | All_private | All_public -> ()
  | Adaptive w ->
      if A.get t.publish_request then begin
        A.set t.publish_request false;
        let own = t.own in
        (* a sprung trip wire is live steal pressure: suspend privatising
           (and any pending re-arm — the wire is being re-pointed here) *)
        own.consec_public_inlines <- 0;
        own.rearm <- false;
        let old_limit = own.public_limit in
        let new_limit = min t.capacity (old_limit + w) in
        let lo = max old_limit (bot_index t) in
        let hi = min new_limit own.top in
        for i = lo to hi - 1 do
          let s = t.slots.(i) in
          if not s.pushed_public then begin
            s.pushed_public <- true;
            A.set s.state Ts.task_public
          end
        done;
        own.public_limit <- new_limit;
        refresh t;
        A.set t.trip_index (new_limit - 1);
        own.on_publish ()
      end

(* The push at index [Array.length t.slots] needs a longer array: double
   it, keeping the old slot records below the old length (see [t]). At
   the capacity, raise before anything is mutated, so a failed spawn
   leaves the stack exactly as it was. [A.step] is nothing in
   production; under the model checker it lets a thief run between the
   owner's last push into the old array and this store. *)
let[@inline never] grow t =
  let old = t.slots in
  let n = Array.length old in
  if n >= t.capacity then raise Pool_overflow;
  A.step "grow";
  t.slots <-
    Array.init (min t.capacity (2 * n)) (fun i ->
        if i < n then old.(i) else new_slot t.dummy);
  refresh t

(* The private fast push (§III-B's 1-cycle spawn): the push at [top] when
   it is in the fast window and no publish request is pending, so it
   needs no grow, no publish and no re-arm and is private. [false], with
   nothing done, sends the caller to [push_slow]. *)
let[@inline] push_private t v =
  let own = t.own in
  let i = own.top in
  own.public_limit <= i
  && i < own.hi
  && (not (A.get t.publish_request))
  && begin
       (* in bounds: the window ends at the array's length *)
       let slot = Array.unsafe_get t.slots i in
       slot.payload <- v;
       slot.pushed_public <- false;
       own.top <- i + 1;
       true
     end

(* Every other push: the one a [push_private] refused, or one the
   caller sends here directly. *)
let[@inline never] push_slow t v =
  let own = t.own in
  let i = own.top in
  if i >= Array.length t.slots then grow t;
  service_publish t;
  (* in bounds: checked above, and a grow only lengthens the array *)
  let slot = Array.unsafe_get t.slots i in
  slot.payload <- v;
  if i < own.public_limit then begin
    slot.pushed_public <- true;
    (* The state store is the release that makes the task stealable; it
       comes after the payload write. *)
    A.set slot.state Ts.task_public
  end
  else if own.rearm then begin
    (* A privatize left no live public descriptor at or above [bot]
       (see [maybe_privatize]): publish this push and point the wire at
       it, so thieves regain a probe point and steal pressure can widen
       the window again. *)
    own.rearm <- false;
    own.public_limit <- i + 1;
    refresh t;
    slot.pushed_public <- true;
    A.set slot.state Ts.task_public;
    A.set t.trip_index i
  end
  else
    (* Private spawn: the paper's 1-cycle case. The descriptor's presence
       is tracked solely by the owner's [top]; the shared state word stays
       EMPTY, which no thief will ever CAS, so no synchronised write is
       needed at all. *)
    slot.pushed_public <- false;
  own.top <- i + 1

(* The checker and the unit tests push through here; the pool calls
   the two halves itself, so its copy leaves [push] and [pop] unused. *)
let[@inline] [@warning "-32"] push t v =
  if not (push_private t v) then push_slow t v

(* Shrink the public window after a run of inlined public joins; only
   future pushes are affected (descriptors already published keep their
   synchronised join path via [pushed_public]).

   The wire must stay reachable: a steal probes only [slots.(bot)], so a
   trip index below [bot] can never fire and the stack would be
   unstealable forever (publications are driven purely by the wire).
   When the shrunken window still has a live public descriptor above
   [bot] the wire is clamped onto it; when it does not (the inline that
   triggered us was at or below [bot]), the wire is disarmed and
   re-armed on the next push instead. *)
let maybe_privatize t i =
  match t.publicity with
  | All_private | All_public -> ()
  | Adaptive _ ->
      let own = t.own in
      own.consec_public_inlines <- own.consec_public_inlines + 1;
      if
        own.consec_public_inlines >= privatize_threshold
        && i < own.public_limit
      then begin
        let b = bot_index t in
        let new_limit = max b i in
        if new_limit < own.public_limit then begin
          own.public_limit <- new_limit;
          if new_limit > b then A.set t.trip_index (new_limit - 1)
          else begin
            A.set t.trip_index disarmed;
            own.rearm <- true
          end;
          refresh t;
          own.on_privatize ()
        end;
        own.consec_public_inlines <- 0
      end

(* Join codes returned by [pop]; a code >= 0 is the thief's id. *)
let inline_private = -3
let inline_public = -2
let stolen_finished = -1

let[@inline] top_payload t =
  let top = t.own.top in
  if top <= 0 then invalid_arg "Direct_stack.top_payload: empty stack";
  t.slots.(top - 1).payload

(* A public join whose exchange found the task gone: stolen by [code], or
   already finished ([stolen_finished]). *)
let[@inline] joined_stolen own code =
  own.consec_public_inlines <- 0;
  code

(* Spin through a thief's transient EMPTY until it commits STOLEN or backs
   off to TASK. *)
let rec wait_settled slot =
  let s = A.get slot.state in
  if s = Ts.empty then begin
    A.cpu_relax ();
    wait_settled slot
  end
  else s

(* The public join path. Top-level rather than local to [pop], so a
   public join allocates no closure. *)
let rec join_public t slot i =
  let own = t.own in
  let s = A.exchange slot.state Ts.empty in
  if s = Ts.task_public then begin
    maybe_privatize t i;
    inline_public
  end
  else if s = Ts.empty then begin
    (* Transient: a thief CASed the descriptor and is mid-steal; it will
       either commit STOLEN or back off to TASK. *)
    let s' = wait_settled slot in
    if s' = Ts.task_public then join_public t slot i
    else if Ts.is_stolen s' then joined_stolen own (Ts.thief s')
    else (* DONE *) joined_stolen own stolen_finished
  end
  else if Ts.is_stolen s then
    (* Our exchange clobbered STOLEN with EMPTY; harmless — the thief's
       unconditional DONE store still lands and the owner polls only for
       DONE. *)
    joined_stolen own (Ts.thief s)
  else (* DONE: the thief finished before we even joined. *)
    joined_stolen own stolen_finished

(* The private fast pop (§III-B's join of a private task): drop [top]
   when the newest slot is in the fast window, holds [v] (physically),
   was pushed private and no publish request is pending. [false], with
   nothing done, sends the caller to [pop_slow]. A public slot sits in
   the window too (it starts at 0): [pushed_public] alone tells the two
   joins apart, as in [pop_slow]. *)
let[@inline] pop_private t v =
  let own = t.own in
  let i = own.top - 1 in
  0 <= i
  && i < own.hi
  && begin
       (* in bounds: [i >= 0], and [i < top <= length] *)
       let slot = Array.unsafe_get t.slots i in
       slot.payload == v && not slot.pushed_public
     end
  && (not (A.get t.publish_request))
  && begin
       own.top <- i;
       true
     end

(* Every other pop: the one a [pop_private] refused, or one the caller
   sends here directly. *)
let[@inline never] pop_slow t =
  let own = t.own in
  if own.top <= 0 then invalid_arg "Direct_stack.pop: empty stack";
  service_publish t;
  own.top <- own.top - 1;
  let i = own.top in
  let slot = t.slots.(i) in
  if not slot.pushed_public then
    (* Private fast path: no atomic read-modify-write, no fence — the
       descriptor was never visible to thieves. The payload stays in the
       slot until a push overwrites it or [sweep] clears it. *)
    inline_private
  else join_public t slot i

(* As [push]: unused in the pool's copy. *)
let[@inline] [@warning "-32"] pop t =
  let i = t.own.top - 1 in
  if i >= 0 && pop_private t (Array.unsafe_get t.slots i).payload then
    inline_private
  else pop_slow t

(* Dead payloads are cleared lazily: [pop] and [reclaim] leave them for
   the next push at that depth to overwrite, so a pair pays one
   [caml_modify], and one whose old value is usually young, not two.
   Only [sweep] clears, and only upwards from [top], so the dead slots
   stay one run that ends at the first [dummy]. *)
let sweep t =
  let slots = t.slots in
  let i = ref t.own.top in
  while !i < Array.length slots && slots.(!i).payload != t.dummy do
    slots.(!i).payload <- t.dummy;
    incr i
  done

let stolen_done t ~index = A.get t.slots.(index).state = Ts.done_

(* [pop] moved [top] down onto the stolen slot, where the thief's DONE
   store lands; a waiting owner's pushes must go above it. *)
let hold t ~index = t.own.top <- index + 1

let reclaim t ~index =
  t.own.top <- index;
  let slot = t.slots.(index) in
  A.set slot.state Ts.empty;
  (* Only the owner can be here, and every descriptor at or above [index]
     is dead, so no thief can be moving [bot] concurrently; the steal
     bits are preserved. *)
  let w = A.get t.botw in
  A.set t.botw (w land lnot bot_mask lor index)

type 'a steal_result = Stolen_task of 'a * int | Fail | Backoff

type steal_phase = Pre_cas | Post_cas | Trip

(* Default interference: nothing injected. A shared top-level closure so
   the un-instrumented call pays no allocation. *)
let no_interference (_ : steal_phase) = false

let steal ?(interfere = no_interference) t ~thief =
  (* The array first, then [bot]: an owner's grow between the two leaves
     this attempt holding the old array with [bot] past its end, which
     fails as an empty stack does (see [t]). *)
  let slots = t.slots in
  let b = A.get t.botw land bot_mask in
  if b >= Array.length slots then begin
    ignore (A.fetch_and_add t.fb 1 : int);
    Fail
  end
  else begin
    let slot = slots.(b) in
    let s1 = A.get slot.state in
    if not (Ts.is_task_public s1) then begin
      ignore (A.fetch_and_add t.fb 1 : int);
      Fail
    end
    (* [Pre_cas] sits in the §III-A window between the state read and the
       CAS: a delay here lets the owner recycle the descriptor under us
       (the delayed-thief ABA), an abort models a lost CAS race. *)
    else if interfere Pre_cas then begin
      ignore (A.fetch_and_add t.fb 1 : int);
      Fail
    end
    else if not (A.compare_and_set slot.state s1 Ts.empty) then begin
      ignore (A.fetch_and_add t.fb 1 : int);
      Fail
    end
    else begin
      (* [Post_cas] runs while we hold the transient EMPTY; an abort takes
         the same restore path as a genuine ABA detection. The protocol
         keeps the window safe: competing thieves fail on EMPTY and a
         joining owner spins, so [bot] cannot move during the delay. *)
      let aborted = interfere Post_cas in
      let w1 = A.get t.botw in
      if w1 land bot_mask <> b || aborted then begin
        (* Delayed-thief ABA (§III-A), genuine or injected: the CAS won
           against a recycled descriptor while [bot] points elsewhere.
           Restore the state — the transient EMPTY only made competing
           thieves fail and a joining owner spin — and back off. *)
        A.set slot.state s1;
        ignore (A.fetch_and_add t.fb 1 : int);
        Backoff
      end
      else begin
        let v = slot.payload in
        A.set slot.state (Ts.stolen ~thief);
        (* While we hold slot [b]'s transient EMPTY with [bot = b], no
           other thief can advance [bot] (they fail on EMPTY) and the
           owner can neither pop past [b] (it spins) nor reclaim below it
           (reclaims are top-down through [b]). So [w1] is still current,
           and one plain store both advances [bot] and counts the steal —
           the packed word turns the old store + fetch-and-add into a
           single atomic write. *)
        A.set t.botw (w1 + (1 lsl 32) + 1);
        if b >= A.get t.trip_index then begin
          (* At or past the wire ([>=], not [=]: a stale-low wire left by
             an old privatize or an owner inline of the wire descriptor
             still fires on the next successful steal). [Trip] delays the
             publish request past the steal that sprang it. *)
          ignore (interfere Trip : bool);
          A.set t.publish_request true
        end;
        Stolen_task (v, b)
      end
    end
  end

let complete_steal t ~index = A.set t.slots.(index).state Ts.done_

let state_name s =
  if s = Ts.empty then "empty"
  else if s = Ts.task_private then "task_private"
  else if s = Ts.task_public then "task_public"
  else if s = Ts.done_ then "done"
  else if Ts.is_stolen s then Printf.sprintf "stolen(%d)" (Ts.thief s)
  else Printf.sprintf "unknown(%d)" s

let check_quiescent t =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  if t.own.top <> 0 then
    add "top = %d (expected 0: unjoined descriptors)" t.own.top;
  let b = bot_index t in
  if b <> 0 then add "bot = %d (expected 0: unreclaimed steals)" b;
  let bad_state = ref 0 and bad_payload = ref 0 and bad_result = ref 0 in
  let first = ref (-1) and slots = t.slots in
  for i = 0 to Array.length slots - 1 do
    let slot = slots.(i) in
    if A.get slot.state <> Ts.empty then begin
      incr bad_state;
      if !first < 0 then first := i
    end;
    if slot.payload != t.dummy then incr bad_payload;
    if slot.result != Ts.no_outcome then incr bad_result
  done;
  if !bad_state > 0 then
    add "%d descriptor(s) not EMPTY (first: index %d, state %s)" !bad_state
      !first
      (state_name (A.get slots.(!first).state));
  if !bad_payload > 0 then
    add "%d payload cell(s) still hold a task closure" !bad_payload;
  (* every join empties the result cell it takes *)
  if !bad_result > 0 then
    add "%d result cell(s) still hold an outcome" !bad_result;
  List.rev !violations

let layout_check t =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let padded name words ok =
    if not ok then
      add "%s occupies %d words (want a multiple of %d, >= %d)" name words
        Layout.cache_line_words Layout.cache_line_words
  in
  padded "owner block" (Layout.size_words t.own) (Layout.is_padded t.own);
  padded "botw" (A.size_words t.botw) (A.is_padded t.botw);
  padded "trip_index" (A.size_words t.trip_index) (A.is_padded t.trip_index);
  padded "publish_request"
    (A.size_words t.publish_request)
    (A.is_padded t.publish_request);
  padded "fb" (A.size_words t.fb) (A.is_padded t.fb);
  Array.iteri
    (fun i s ->
      if not (A.is_padded s.state) then
        add "slot %d state occupies %d words (not line-padded)" i
          (A.size_words s.state))
    t.slots;
  List.rev !errs

let dump_live t =
  let top = t.own.top in
  let slots = t.slots in
  let live = ref [] in
  for i = Array.length slots - 1 downto 0 do
    let s = A.get slots.(i).state in
    if i < top || s <> Ts.empty then live := (i, state_name s) :: !live
  done;
  !live

(* A queued pool's stack is [All_private]: its deque, not [steal], hands
   out slot indices, and the thief reads the task here. *)
let payload t ~index = t.slots.(index).payload

(* A queued pool's stolen slot once its thief's DONE has landed: pop it
   and clear its state. Unlike [reclaim] it leaves [bot], which no
   [steal] moves in a queued pool. *)
let release t ~index =
  t.own.top <- index;
  A.set t.slots.(index).state Ts.empty

(* A queued pool's failed steal: its deque had no index for the thief.
   Counted in [fb] like a failed [steal], so [steal_pressure] sees it. *)
let note_miss t = ignore (A.fetch_and_add t.fb 1 : int)

(* Thief: leave the outcome of the task stolen at [index] in its slot's
   result cell, before [complete_steal] publishes it. The slot record,
   not an array cell, so a grow cannot strand the write. *)
let set_result t ~index r = t.slots.(index).result <- r

(* Owner: the outcome in slot [index]'s result cell, leaving the cell
   empty so it retains nothing. *)
let take_result t ~index =
  let slot = t.slots.(index) in
  let r = slot.result in
  slot.result <- Ts.no_outcome;
  r

let length t = Array.length t.slots
