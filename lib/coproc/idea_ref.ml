let modulus = 65537

let mul a b =
  let a = if a = 0 then 65536 else a land 0xFFFF in
  let b = if b = 0 then 65536 else b land 0xFFFF in
  let p = a * b mod modulus in
  if p = 65536 then 0 else p

let add a b = (a + b) land 0xFFFF
let add_inv a = -a land 0xFFFF

(* Multiplicative inverse modulo 65537 by Fermat (65537 is prime); the
   0 ≡ 2^16 representation makes 0 self-inverse. *)
let mul_inv a =
  if a = 0 then 0
  else begin
    let rec power base exp acc =
      if exp = 0 then acc
      else
        let acc = if exp land 1 = 1 then acc * base mod modulus else acc in
        power (base * base mod modulus) (exp lsr 1) acc
    in
    let inv = power (a land 0xFFFF) (modulus - 2) 1 in
    if inv = 65536 then 0 else inv
  end

let key_of_words words =
  if Array.length words <> 8 then invalid_arg "Idea_ref.key_of_words: need 8 words";
  Array.map
    (fun w ->
      if w < 0 || w > 0xFFFF then
        invalid_arg "Idea_ref.key_of_words: word out of 16 bits";
      w)
    words

let expand_key key =
  let key = key_of_words key in
  let sub = Array.make 52 0 in
  Array.blit key 0 sub 0 8;
  (* sub.(i) for i >= 8 comes from the key rotated left by 25 bits per
     group of eight; expressed directly on previous subkeys. *)
  for i = 8 to 51 do
    let base = i land lnot 7 in
    let j = i land 7 in
    let w k = sub.(base - 8 + k) in
    sub.(i) <-
      (if j < 6 then ((w (j + 1) lsl 9) lor (w (j + 2) lsr 7)) land 0xFFFF
       else if j = 6 then ((w 7 lsl 9) lor (w 0 lsr 7)) land 0xFFFF
       else ((w 0 lsl 9) lor (w 1 lsr 7)) land 0xFFFF)
  done;
  sub

let invert_key ek =
  if Array.length ek <> 52 then invalid_arg "Idea_ref.invert_key: need 52 subkeys";
  let dk = Array.make 52 0 in
  dk.(0) <- mul_inv ek.(48);
  dk.(1) <- add_inv ek.(49);
  dk.(2) <- add_inv ek.(50);
  dk.(3) <- mul_inv ek.(51);
  dk.(4) <- ek.(46);
  dk.(5) <- ek.(47);
  for i = 1 to 7 do
    let j = 48 - (6 * i) in
    dk.(6 * i) <- mul_inv ek.(j);
    dk.((6 * i) + 1) <- add_inv ek.(j + 2);
    dk.((6 * i) + 2) <- add_inv ek.(j + 1);
    dk.((6 * i) + 3) <- mul_inv ek.(j + 3);
    dk.((6 * i) + 4) <- ek.(j - 2);
    dk.((6 * i) + 5) <- ek.(j - 1)
  done;
  dk.(48) <- mul_inv ek.(0);
  dk.(49) <- add_inv ek.(1);
  dk.(50) <- add_inv ek.(2);
  dk.(51) <- mul_inv ek.(3);
  dk

(* The rounds on four loose words, results stored into [out.(0..3)]: no
   tuple in or out, so the coprocessor's per-block datapath allocates
   nothing. *)
let crypt_words_into sub x1 x2 x3 x4 out =
  let x1 = ref x1 and x2 = ref x2 and x3 = ref x3 and x4 = ref x4 in
  for r = 0 to 7 do
    let k = 6 * r in
    let y1 = mul !x1 sub.(k) in
    let y2 = add !x2 sub.(k + 1) in
    let y3 = add !x3 sub.(k + 2) in
    let y4 = mul !x4 sub.(k + 3) in
    let t0 = mul (y1 lxor y3) sub.(k + 4) in
    let t1 = mul (add (y2 lxor y4) t0) sub.(k + 5) in
    let t2 = add t0 t1 in
    x1 := y1 lxor t1;
    x2 := y3 lxor t1;
    x3 := y2 lxor t2;
    x4 := y4 lxor t2
  done;
  out.(0) <- mul !x1 sub.(48);
  out.(1) <- add !x3 sub.(49);
  out.(2) <- add !x2 sub.(50);
  out.(3) <- mul !x4 sub.(51)

let crypt_block sub (x1, x2, x3, x4) =
  let out = Array.make 4 0 in
  crypt_words_into sub x1 x2 x3 x4 out;
  (out.(0), out.(1), out.(2), out.(3))

let block_bytes = 8

let get16 b pos =
  (Char.code (Bytes.get b pos) lsl 8) lor Char.code (Bytes.get b (pos + 1))

let put16 b pos v =
  Bytes.set b pos (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (pos + 1) (Char.chr (v land 0xFF))

let block_of_bytes b ~pos =
  (get16 b pos, get16 b (pos + 2), get16 b (pos + 4), get16 b (pos + 6))

let block_to_bytes b ~pos (x1, x2, x3, x4) =
  put16 b pos x1;
  put16 b (pos + 2) x2;
  put16 b (pos + 4) x3;
  put16 b (pos + 6) x4

(* A little-endian 32-bit bus word [b0 | b1<<8 | b2<<16 | b3<<24] carries
   the block bytes in storage order, so the big-endian 16-bit words are
   (b0<<8|b1) and (b2<<8|b3). *)
let word_of_le32 w i =
  let s = 16 * i in
  (((w lsr s) land 0xFF) lsl 8) lor ((w lsr (s + 8)) land 0xFF)

let le32_of_pair x y =
  ((x lsr 8) land 0xFF)
  lor ((x land 0xFF) lsl 8)
  lor (((y lsr 8) land 0xFF) lsl 16)
  lor ((y land 0xFF) lsl 24)

let words_of_le32 ~lo ~hi =
  (word_of_le32 lo 0, word_of_le32 lo 1, word_of_le32 hi 0, word_of_le32 hi 1)

let le32_of_words (x1, x2, x3, x4) = (le32_of_pair x1 x2, le32_of_pair x3 x4)

let crypt_le32_into sub ~lo ~hi out =
  crypt_words_into sub (word_of_le32 lo 0) (word_of_le32 lo 1)
    (word_of_le32 hi 0) (word_of_le32 hi 1) out;
  let x1 = out.(0) and x2 = out.(1) and x3 = out.(2) and x4 = out.(3) in
  out.(0) <- le32_of_pair x1 x2;
  out.(1) <- le32_of_pair x3 x4

let iv_of_words words =
  if Array.length words <> 4 then invalid_arg "Idea_ref.iv_of_words: need 4 words";
  Array.iter
    (fun w ->
      if w < 0 || w > 0xFFFF then
        invalid_arg "Idea_ref.iv_of_words: word out of 16 bits")
    words;
  (words.(0), words.(1), words.(2), words.(3))

let subkeys ~key ~decrypt =
  let sub = expand_key key in
  if decrypt then invert_key sub else sub

let store_words b ~pos w =
  put16 b pos w.(0);
  put16 b (pos + 2) w.(1);
  put16 b (pos + 4) w.(2);
  put16 b (pos + 6) w.(3)

(* Both modes run the rounds through one four-word scratch array, so a
   block costs no allocation. *)
let cbc ~key ~decrypt ~iv input =
  let n = Bytes.length input in
  if n mod block_bytes <> 0 then
    invalid_arg "Idea_ref.cbc: length must be a multiple of 8";
  let sub = subkeys ~key ~decrypt in
  let out = Bytes.create n in
  let v1, v2, v3, v4 = iv_of_words iv in
  let c1 = ref v1 and c2 = ref v2 and c3 = ref v3 and c4 = ref v4 in
  let w = Array.make 4 0 in
  for i = 0 to (n / block_bytes) - 1 do
    let pos = i * block_bytes in
    let b1 = get16 input pos and b2 = get16 input (pos + 2) in
    let b3 = get16 input (pos + 4) and b4 = get16 input (pos + 6) in
    if decrypt then begin
      crypt_words_into sub b1 b2 b3 b4 w;
      w.(0) <- w.(0) lxor !c1;
      w.(1) <- w.(1) lxor !c2;
      w.(2) <- w.(2) lxor !c3;
      w.(3) <- w.(3) lxor !c4;
      c1 := b1;
      c2 := b2;
      c3 := b3;
      c4 := b4
    end
    else begin
      crypt_words_into sub (b1 lxor !c1) (b2 lxor !c2) (b3 lxor !c3)
        (b4 lxor !c4) w;
      c1 := w.(0);
      c2 := w.(1);
      c3 := w.(2);
      c4 := w.(3)
    end;
    store_words out ~pos w
  done;
  out

let ecb ~key ~decrypt input =
  let n = Bytes.length input in
  if n mod block_bytes <> 0 then
    invalid_arg "Idea_ref.ecb: length must be a multiple of 8";
  let sub = subkeys ~key ~decrypt in
  let out = Bytes.create n in
  let w = Array.make 4 0 in
  for i = 0 to (n / block_bytes) - 1 do
    let pos = i * block_bytes in
    crypt_words_into sub (get16 input pos)
      (get16 input (pos + 2))
      (get16 input (pos + 4))
      (get16 input (pos + 6))
      w;
    store_words out ~pos w
  done;
  out
