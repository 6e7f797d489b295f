module Rng = Wool_util.Rng

module Site = struct
  type t =
    | Pre_steal_cas
    | Post_steal_cas
    | Trip_wire
    | Publish
    | Nap_entry
    | Spawn
    | Join
    | Leapfrog
    | Submit
    | Admit
    | Drain
    | Expire
    | Cancel

  let all =
    [
      Pre_steal_cas; Post_steal_cas; Trip_wire; Publish; Nap_entry; Spawn;
      Join; Leapfrog; Submit; Admit; Drain; Expire; Cancel;
    ]

  let count = List.length all

  let to_int = function
    | Pre_steal_cas -> 0
    | Post_steal_cas -> 1
    | Trip_wire -> 2
    | Publish -> 3
    | Nap_entry -> 4
    | Spawn -> 5
    | Join -> 6
    | Leapfrog -> 7
    | Submit -> 8
    | Admit -> 9
    | Drain -> 10
    | Expire -> 11
    | Cancel -> 12

  let name = function
    | Pre_steal_cas -> "pre_steal_cas"
    | Post_steal_cas -> "post_steal_cas"
    | Trip_wire -> "trip_wire"
    | Publish -> "publish"
    | Nap_entry -> "nap_entry"
    | Spawn -> "spawn"
    | Join -> "join"
    | Leapfrog -> "leapfrog"
    | Submit -> "submit"
    | Admit -> "admit"
    | Drain -> "drain"
    | Expire -> "expire"
    | Cancel -> "cancel"

  let of_name s = List.find_opt (fun t -> name t = s) all
end

module Kind = struct
  type t = Delay of int | Fail_steal | Raise_exn | Stall of int | Dup

  let class_count = 5

  let class_of = function
    | Delay _ -> 0
    | Fail_steal -> 1
    | Raise_exn -> 2
    | Stall _ -> 3
    | Dup -> 4

  let class_name = function
    | 0 -> "delay"
    | 1 -> "fail_steal"
    | 2 -> "raise_exn"
    | 3 -> "stall"
    | 4 -> "dup"
    | _ -> invalid_arg "Wool_fault.Kind.class_name"

  let name = function
    | Delay n -> Printf.sprintf "delay(%d)" n
    | Fail_steal -> "fail_steal"
    | Raise_exn -> "raise_exn"
    | Stall n -> Printf.sprintf "stall(%d)" n
    | Dup -> "dup"

  let valid_at kind site =
    match kind with
    | Delay _ | Stall _ -> true
    | Fail_steal ->
        (match site with
        | Site.Pre_steal_cas | Site.Post_steal_cas -> true
        | _ -> false)
    | Raise_exn -> site = Site.Spawn
    | Dup -> site = Site.Drain
end

exception Injected of { site : string; worker : int; fire : int }

let () =
  Printexc.register_printer (function
    | Injected { site; worker; fire } ->
        Some
          (Printf.sprintf "Wool_fault.Injected(site=%s, worker=%d, fire=%d)"
             site worker fire)
    | _ -> None)

module Plan = struct
  type rule = { site : Site.t; kind : Kind.t; rate : float; max_fires : int }
  type t = { name : string; seed : int; rules : rule list }

  let none = { name = "none"; seed = 0; rules = [] }

  let make ?name ~seed rules =
    List.iter
      (fun r ->
        if not (Kind.valid_at r.kind r.site) then
          invalid_arg
            (Printf.sprintf "Wool_fault.Plan.make: %s cannot fire at %s"
               (Kind.name r.kind) (Site.name r.site));
        if not (r.rate >= 0. && r.rate <= 1.) then
          invalid_arg "Wool_fault.Plan.make: rate outside [0,1]")
      rules;
    let name =
      match name with
      | Some n -> n
      | None -> Printf.sprintf "plan#%x(%d rules)" seed (List.length rules)
    in
    { name; seed; rules }

  (* All (site, kind-shape) pairs a random plan draws delay rules from:
     every site takes a delay. *)
  let random ?(exceptions = true) ~seed () =
    let rng = Rng.make (seed lxor 0xFA17) in
    let sites = Array.of_list Site.all in
    let pick_site () = sites.(Rng.int rng (Array.length sites)) in
    let delay_rule () =
      {
        site = pick_site ();
        kind = Kind.Delay (20 + Rng.int rng 400);
        rate = 0.01 +. Rng.float rng 0.25;
        max_fires = -1;
      }
    in
    let n_delays = 2 + Rng.int rng 3 in
    let delays = List.init n_delays (fun _ -> delay_rule ()) in
    let fail =
      {
        site = (if Rng.bool rng then Site.Pre_steal_cas else Site.Post_steal_cas);
        kind = Kind.Fail_steal;
        rate = 0.05 +. Rng.float rng 0.4;
        max_fires = -1;
      }
    in
    let stall =
      {
        site = pick_site ();
        kind = Kind.Stall (10_000 + Rng.int rng 90_000);
        rate = 0.002;
        max_fires = 1 + Rng.int rng 3;
      }
    in
    let exn_rules =
      if exceptions && Rng.bool rng then
        [
          {
            site = Site.Spawn;
            kind = Kind.Raise_exn;
            rate = 0.001 +. Rng.float rng 0.01;
            max_fires = 1 + Rng.int rng 2;
          };
        ]
      else []
    in
    make
      ~name:(Printf.sprintf "random#%d%s" seed
               (if exn_rules <> [] then "+exn" else ""))
      ~seed
      (delays @ (fail :: stall :: exn_rules))

  let has_exceptions t =
    List.exists (fun r -> r.kind = Kind.Raise_exn) t.rules

  let pp fmt t =
    Format.fprintf fmt "@[<v 2>plan %s (seed %#x):" t.name t.seed;
    List.iter
      (fun r ->
        Format.fprintf fmt "@ %s @@ %s rate=%.3f%s" (Kind.name r.kind)
          (Site.name r.site) r.rate
          (if r.max_fires >= 0 then Printf.sprintf " max=%d" r.max_fires
           else ""))
      t.rules;
    Format.fprintf fmt "@]"
end

module Stats = struct
  (* fires.(site).(kind_class) *)
  type t = int array array

  let zero () = Array.make_matrix Site.count Kind.class_count 0

  let combine a b =
    Array.init Site.count (fun s ->
        Array.init Kind.class_count (fun k -> a.(s).(k) + b.(s).(k)))

  let total t = Array.fold_left (fun acc r -> Array.fold_left ( + ) acc r) 0 t

  let count t site =
    Array.fold_left ( + ) 0 t.(Site.to_int site)

  let fields t =
    List.concat_map
      (fun site ->
        let s = Site.to_int site in
        List.filter_map
          (fun k ->
            if t.(s).(k) = 0 then None
            else
              Some
                (Printf.sprintf "%s/%s" (Site.name site) (Kind.class_name k),
                 t.(s).(k)))
          (List.init Kind.class_count Fun.id))
      Site.all

  let pp fmt t =
    match fields t with
    | [] -> Format.fprintf fmt "no fires"
    | fs ->
        Format.fprintf fmt "@[<hov 1>{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Format.fprintf fmt ";@ ";
            Format.fprintf fmt "%s=%d" k v)
          fs;
        Format.fprintf fmt "}@]"
end

module Injector = struct
  type armed_rule = {
    rule : Plan.rule;
    mutable fired : int; (* per-worker fires of this rule *)
  }

  type t = {
    worker : int;
    rng : Rng.t;
    (* rules bucketed by site so [fire] scans only candidates *)
    by_site : armed_rule array array;
    counts : Stats.t;
    mutable n_fires : int;
  }

  let make (plan : Plan.t) ~worker =
    let by_site =
      Array.init Site.count (fun s ->
          plan.Plan.rules
          |> List.filter (fun r -> Site.to_int r.Plan.site = s)
          |> List.map (fun rule -> { rule; fired = 0 })
          |> Array.of_list)
    in
    {
      worker;
      (* distinct, deterministic stream per (plan seed, worker) *)
      rng = Rng.make ((plan.Plan.seed * 0x9E3779B1) lxor (worker + 1));
      by_site;
      counts = Stats.zero ();
      n_fires = 0;
    }

  let fire t site =
    let s = Site.to_int site in
    let rules = t.by_site.(s) in
    let n = Array.length rules in
    let rec scan i =
      if i >= n then None
      else begin
        let ar = rules.(i) in
        let r = ar.rule in
        if
          (r.Plan.max_fires < 0 || ar.fired < r.Plan.max_fires)
          && Rng.float t.rng 1.0 < r.Plan.rate
        then begin
          ar.fired <- ar.fired + 1;
          t.n_fires <- t.n_fires + 1;
          let k = Kind.class_of r.Plan.kind in
          t.counts.(s).(k) <- t.counts.(s).(k) + 1;
          Some r.Plan.kind
        end
        else scan (i + 1)
      end
    in
    scan 0

  let spin n =
    for _ = 1 to n do
      Domain.cpu_relax ()
    done

  let injected_exn t site =
    Injected { site = Site.name site; worker = t.worker; fire = t.n_fires }

  let stats t = t.counts
  let fires t = t.n_fires
end
