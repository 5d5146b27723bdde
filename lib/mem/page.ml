(* [page_shift] is log2 [page_size]: the page size is validated as a power
   of two, so the per-translation page number is a shift, not a division. *)
type geometry = { page_size : int; n_pages : int; page_shift : int }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let geometry ~page_size ~n_pages =
  if not (is_power_of_two page_size) || page_size < 16 then
    invalid_arg "Page.geometry: page_size must be a power of two >= 16";
  if n_pages < 1 then invalid_arg "Page.geometry: n_pages >= 1 required";
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  { page_size; n_pages; page_shift = log2 page_size }

let total_bytes g = g.page_size * g.n_pages
let vpn g addr = addr asr g.page_shift
let offset g addr = addr land (g.page_size - 1)
let base g page = page lsl g.page_shift
let page_count g ~len = (len + g.page_size - 1) asr g.page_shift

let pp ppf g =
  Format.fprintf ppf "%d pages x %d B (%d B total)" g.n_pages g.page_size
    (total_bytes g)
