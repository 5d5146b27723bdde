type candidate = {
  frame : int;
  page : int * int;
  loaded_at : int;
  last_access : int;
  referenced : bool;
  dirty : bool;
}

type oracle_state = {
  (* for each page, the sorted positions of its references *)
  occurrences : (int * int, int array) Hashtbl.t;
  position : unit -> int;
  trace_len : int;
}

type kind =
  | Fifo
  | Lru
  | Random of Rvi_sim.Prng.t
  | Second_chance of { mutable hand : int }
  | Oracle of oracle_state

type t = { kind : kind }

let fifo () = { kind = Fifo }
let lru () = { kind = Lru }
(* The victim stream must be independent of every other consumer seeded
   from the same campaign seed — the fault injector in particular uses
   [Prng.create ~seed] directly, and sharing its stream head would let
   enabling --inject silently perturb replacement decisions. A derived
   stream keeps victim sequences identical with and without injection
   (pinned by a regression test). *)
let random_stream_index = 0x9EC7

let random ~seed =
  { kind = Random (Rvi_sim.Prng.derive ~seed ~index:random_stream_index) }
let second_chance () = { kind = Second_chance { hand = 0 } }

let oracle ~trace ~position =
  let occurrences = Hashtbl.create 64 in
  Array.iteri
    (fun i page ->
      let prev = Option.value (Hashtbl.find_opt occurrences page) ~default:[] in
      Hashtbl.replace occurrences page (i :: prev))
    trace;
  let occurrences =
    let frozen = Hashtbl.create (Hashtbl.length occurrences) in
    Hashtbl.iter
      (fun page rev -> Hashtbl.replace frozen page (Array.of_list (List.rev rev)))
      occurrences;
    frozen
  in
  { kind = Oracle { occurrences; position; trace_len = Array.length trace } }

(* First reference of [page] at or after [pos], or [infinity]. *)
let next_use st page ~pos =
  match Hashtbl.find_opt st.occurrences page with
  | None -> max_int
  | Some occ ->
    (* binary search: first element >= pos *)
    let lo = ref 0 and hi = ref (Array.length occ) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if occ.(mid) < pos then lo := mid + 1 else hi := mid
    done;
    if !lo >= Array.length occ then max_int else occ.(!lo)

let name t =
  match t.kind with
  | Fifo -> "fifo"
  | Lru -> "lru"
  | Random _ -> "random"
  | Second_chance _ -> "second-chance"
  | Oracle _ -> "oracle"

let all_names = [ "fifo"; "lru"; "random"; "second-chance" ]

let of_name ?(seed = 42) = function
  | "fifo" -> Some (fifo ())
  | "lru" -> Some (lru ())
  | "random" -> Some (random ~seed)
  | "second-chance" -> Some (second_chance ())
  | _ -> None

(* Minimum by a measure, breaking ties by lowest frame number so the choice
   is deterministic. *)
let min_by (measure : candidate -> int) candidates =
  Array.fold_left
    (fun best c ->
      match best with
      | None -> Some c
      | Some b ->
        let mc = measure c and mb = measure b in
        if mc < mb || (mc = mb && c.frame < b.frame) then Some c else best)
    None candidates

let choose t ~clear_ref candidates =
  if Array.length candidates = 0 then invalid_arg "Policy.choose: no candidates";
  match t.kind with
  | Fifo -> (
    match min_by (fun c -> c.loaded_at) candidates with
    | Some c -> c.frame
    | None -> assert false)
  | Lru -> (
    (* Hardware-assisted LRU: the TLB stamps every translated access; a
       page never accessed since load falls back to its load stamp. *)
    match min_by (fun c -> Int.max c.last_access c.loaded_at) candidates with
    | Some c -> c.frame
    | None -> assert false)
  | Random prng -> candidates.(Rvi_sim.Prng.int prng (Array.length candidates)).frame
  | Oracle st -> (
    let pos = st.position () in
    (* Belady: evict the page used farthest in the future (ties by frame
       number for determinism). *)
    let best = ref None in
    Array.iter
      (fun c ->
        let nu = next_use st c.page ~pos in
        match !best with
        | None -> best := Some (c, nu)
        | Some (b, bnu) ->
          if nu > bnu || (nu = bnu && c.frame < b.frame) then best := Some (c, nu))
      candidates;
    match !best with Some (c, _) -> c.frame | None -> assert false)
  | Second_chance st ->
    (* Clock scan over the candidates ordered by frame number: skip (and
       strip) referenced pages, take the first unreferenced one. After a
       full revolution everything is unreferenced. *)
    let sorted = Array.copy candidates in
    Array.sort (fun a b -> Int.compare a.frame b.frame) sorted;
    let n = Array.length sorted in
    let start =
      let rec find i = if i >= n then 0 else if sorted.(i).frame >= st.hand then i else find (i + 1) in
      find 0
    in
    let rec scan i remaining referenced_state =
      let c = sorted.(i mod n) in
      if remaining = 0 then c.frame
      else if referenced_state.(i mod n) then begin
        clear_ref c.frame;
        referenced_state.(i mod n) <- false;
        scan ((i + 1) mod n) (remaining - 1) referenced_state
      end
      else c.frame
    in
    let refs = Array.map (fun c -> c.referenced) sorted in
    let victim = scan start (2 * n) refs in
    st.hand <- victim + 1;
    victim
