type tag =
  | Spawn
  | Inline_private
  | Inline_public
  | Join_stolen
  | Steal_attempt
  | Steal_ok
  | Steal_backoff
  | Leap_steal
  | Publish
  | Privatize
  | Nap_enter
  | Nap_exit
  | Submit
  | Admit
  | Reject
  | Dequeue_injected

type t = { ts : int; worker : int; tag : tag; a : int; b : int }

let n_tags = 16

(* The constructors are constant, so a tag is its declaration index. *)
external tag_to_int : tag -> int = "%identity"

let tag_name = function
  | Spawn -> "spawn"
  | Inline_private -> "inline_private"
  | Inline_public -> "inline_public"
  | Join_stolen -> "join_stolen"
  | Steal_attempt -> "steal_attempt"
  | Steal_ok -> "steal_ok"
  | Steal_backoff -> "steal_backoff"
  | Leap_steal -> "leap_steal"
  | Publish -> "publish"
  | Privatize -> "privatize"
  | Nap_enter -> "nap_enter"
  | Nap_exit -> "nap_exit"
  | Submit -> "submit"
  | Admit -> "admit"
  | Reject -> "reject"
  | Dequeue_injected -> "dequeue_injected"

let all_tags =
  [|
    Spawn; Inline_private; Inline_public; Join_stolen; Steal_attempt;
    Steal_ok; Steal_backoff; Leap_steal; Publish; Privatize; Nap_enter;
    Nap_exit; Submit; Admit; Reject; Dequeue_injected;
  |]

let tag_of_int i = if i >= 0 && i < n_tags then Some all_tags.(i) else None

let tag_of_name s =
  let rec go i =
    if i >= n_tags then None
    else if tag_name all_tags.(i) = s then Some all_tags.(i)
    else go (i + 1)
  in
  go 0

let to_tree e =
  Json.Obj
    [
      ("ts", Int e.ts); ("w", Int e.worker); ("tag", Str (tag_name e.tag));
      ("a", Int e.a); ("b", Int e.b);
    ]

let of_tree t =
  let ( let* ) = Option.bind in
  let* ts = Json.int_member "ts" t in
  let* worker = Json.int_member "w" t in
  let* tag = Option.bind (Json.string_member "tag" t) tag_of_name in
  let* a = Json.int_member "a" t in
  let* b = Json.int_member "b" t in
  Some { ts; worker; tag; a; b }

let pp fmt e =
  Format.fprintf fmt "[%d] w%d %s a=%d b=%d" e.ts e.worker (tag_name e.tag)
    e.a e.b
