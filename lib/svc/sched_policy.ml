module Jobs = Rvi_harness.Jobs

type t = Fcfs | Grouped | Wfq

let all = [ Fcfs; Grouped; Wfq ]
let name = function Fcfs -> "fcfs" | Grouped -> "grouped" | Wfq -> "wfq"

let of_name = function
  | "fcfs" -> Some Fcfs
  | "grouped" -> Some Grouped
  | "wfq" -> Some Wfq
  | _ -> None

let preemptive = function Wfq -> true | Fcfs | Grouped -> false

type candidate = {
  c_station : int;
  c_kind : Jobs.app_kind;
  c_tenant : int;
  c_vtime : float;
  c_seq : int;
  c_age_us : float;
  c_parked : bool;
}

(* Total orders. Every comparison bottoms out on [c_seq], which is
   unique, so selection is deterministic whatever the candidate order. *)

let by_seq a b = compare a.c_seq b.c_seq

let by_vtime a b =
  match compare a.c_vtime b.c_vtime with 0 -> by_seq a b | c -> c

let minimum cmp = function
  | [] -> None
  | x :: rest ->
    Some (List.fold_left (fun best c -> if cmp c best < 0 then c else best) x rest)

let select policy ~loaded ~reconfig_bias_us ~age_limit_us candidates =
  match candidates with
  | [] -> None
  | _ -> (
    let resident c = loaded = Some c.c_kind in
    match policy with
    | Fcfs -> minimum by_seq candidates
    | Grouped -> (
      (* Batch by bit-stream: finish the resident kind's backlog before
         paying a reconfiguration — the batch grouping discipline turned
         into an online rule. The aging escape bounds the starvation
         that rule invites under a sustained resident-kind load: once
         the globally oldest candidate has waited past the limit it
         runs regardless of residency. *)
      match minimum by_seq candidates with
      | Some oldest when oldest.c_age_us > age_limit_us -> Some oldest
      | oldest -> (
        match minimum by_seq (List.filter resident candidates) with
        | Some c -> Some c
        | None -> oldest))
    | Wfq -> (
      match minimum by_vtime candidates with
      | None -> None
      | Some best ->
        if resident best then Some best
        else
          (* Reconfiguration-cost awareness: a resident-kind candidate
             within one configuration's worth of virtual time of the
             fair-share winner runs first — the fairness debt is smaller
             than the reconfiguration it avoids. *)
          let near c = c.c_vtime <= best.c_vtime +. reconfig_bias_us in
          (match
             minimum by_vtime
               (List.filter (fun c -> resident c && near c) candidates)
           with
          | Some c -> Some c
          | None -> Some best)))
