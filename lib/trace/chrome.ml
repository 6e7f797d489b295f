let meta ~name ~tid ~value =
  Json.Obj
    [
      ("name", Str name); ("ph", Str "M"); ("pid", Int 1); ("tid", Int tid);
      ("args", Obj [ ("name", Str value) ]);
    ]

let instant ~ts_per_us (e : Event.t) =
  Json.Obj
    [
      ("name", Str (Event.tag_name e.tag)); ("ph", Str "i"); ("s", Str "t");
      ("pid", Int 1); ("tid", Int e.worker);
      ("ts", Num (float_of_int e.ts /. ts_per_us));
      ("args", Obj [ ("a", Int e.a); ("b", Int e.b) ]);
    ]

(* The envelope is written around the rows, one row's tree at a time, so
   a full ring's worth of events is never held as one tree. *)
let to_string ?(process_name = "wool") ?(ts_per_us = 1000.0) events =
  let buf = Buffer.create (4096 + (Array.length events * 96)) in
  Buffer.add_string buf {|{"traceEvents":[|};
  Json.to_buffer buf (meta ~name:"process_name" ~tid:0 ~value:process_name);
  let row t =
    Buffer.add_char buf ',';
    Json.to_buffer buf t
  in
  Array.fold_left
    (fun ws (e : Event.t) -> if List.mem e.worker ws then ws else e.worker :: ws)
    [] events
  |> List.sort compare
  |> List.iter (fun w ->
         row
           (meta ~name:"thread_name" ~tid:w ~value:(Printf.sprintf "worker %d" w)));
  Array.iter (fun e -> row (instant ~ts_per_us e)) events;
  Buffer.add_string buf {|],"displayTimeUnit":"ms"}|};
  Buffer.contents buf

let write_file ?process_name ?ts_per_us path events =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string ?process_name ?ts_per_us events))
