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

let to_json e =
  Printf.sprintf {|{"ts":%d,"w":%d,"tag":"%s","a":%d,"b":%d}|} e.ts e.worker
    (tag_name e.tag) e.a e.b

(* Parses exactly the shape [to_json] emits (fields in any order,
   whitespace tolerated). *)
let of_json_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith ("Event.of_json_exn: " ^ msg) in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos >= n || s.[!pos] <> c then
      fail (Printf.sprintf "expected '%c' at %d" c !pos);
    incr pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    while !pos < n && s.[!pos] <> '"' do
      Buffer.add_char b s.[!pos];
      incr pos
    done;
    expect '"';
    Buffer.contents b
  in
  let parse_int () =
    skip_ws ();
    let start = !pos in
    if !pos < n && s.[!pos] = '-' then incr pos;
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then fail "expected integer";
    int_of_string (String.sub s start (!pos - start))
  in
  let ts = ref None and w = ref None and tag = ref None in
  let a = ref None and b = ref None in
  expect '{';
  let rec fields () =
    let key = parse_string () in
    expect ':';
    (match key with
    | "ts" -> ts := Some (parse_int ())
    | "w" -> w := Some (parse_int ())
    | "a" -> a := Some (parse_int ())
    | "b" -> b := Some (parse_int ())
    | "tag" -> (
        let name = parse_string () in
        match tag_of_name name with
        | Some t -> tag := Some t
        | None -> fail ("unknown tag " ^ name))
    | k -> fail ("unknown field " ^ k));
    skip_ws ();
    if !pos < n && s.[!pos] = ',' then begin
      incr pos;
      fields ()
    end
  in
  fields ();
  expect '}';
  match (!ts, !w, !tag, !a, !b) with
  | Some ts, Some worker, Some tag, Some a, Some b ->
      { ts; worker; tag; a; b }
  | _ -> fail "missing field"

let pp fmt e =
  Format.fprintf fmt "[%d] w%d %s a=%d b=%d" e.ts e.worker (tag_name e.tag)
    e.a e.b
