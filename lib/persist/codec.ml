exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

module W = struct
  (* A growable byte buffer written in place, so a whole int array can
     be reserved once and filled with unboxed stores. *)
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 256; len = 0 }

  let reserve b k =
    let need = b.len + k in
    if need > Bytes.length b.buf then begin
      let bigger = Bytes.create (max need (2 * Bytes.length b.buf)) in
      Bytes.blit b.buf 0 bigger 0 b.len;
      b.buf <- bigger
    end

  let i64 b v =
    reserve b 8;
    Bytes.set_int64_le b.buf b.len v;
    b.len <- b.len + 8

  let int b v = i64 b (Int64.of_int v)

  let bool b v =
    reserve b 1;
    Bytes.set b.buf b.len (if v then '\001' else '\000');
    b.len <- b.len + 1

  let float b v = i64 b (Int64.bits_of_float v)

  let string b s =
    let n = String.length s in
    int b n;
    reserve b n;
    Bytes.blit_string s 0 b.buf b.len n;
    b.len <- b.len + n

  let int_array b a =
    let n = Array.length a in
    reserve b (8 * (n + 1));
    let buf = b.buf and off = b.len + 8 in
    Bytes.set_int64_le buf b.len (Int64.of_int n);
    for i = 0 to n - 1 do
      Bytes.set_int64_le buf (off + (8 * i)) (Int64.of_int (Array.unsafe_get a i))
    done;
    b.len <- off + (8 * n)

  let option b f = function
    | None -> bool b false
    | Some v ->
        bool b true;
        f b v

  let list b f l =
    int b (List.length l);
    List.iter (f b) l

  let contents b = Bytes.sub_string b.buf 0 b.len
end

module R = struct
  type t = { s : string; mutable pos : int }

  let of_string s = { s; pos = 0 }

  let need r n =
    if n < 0 || r.pos + n > String.length r.s then
      corrupt "truncated: need %d bytes at offset %d of %d" n r.pos
        (String.length r.s)

  let i64 r =
    need r 8;
    let v = String.get_int64_le r.s r.pos in
    r.pos <- r.pos + 8;
    v

  let int r =
    let v = i64 r in
    let i = Int64.to_int v in
    if Int64.of_int i <> v then corrupt "integer out of native range";
    i

  let bool r =
    need r 1;
    let c = r.s.[r.pos] in
    r.pos <- r.pos + 1;
    match c with
    | '\000' -> false
    | '\001' -> true
    | c -> corrupt "bad boolean byte %d" (Char.code c)

  let float r = Int64.float_of_bits (i64 r)

  let string r =
    let n = int r in
    need r n;
    let s = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    s

  let int_array r =
    let n = int r in
    (* every element is 8 bytes: reject a lying length before allocating *)
    if n < 0 || n > (String.length r.s - r.pos) / 8 then
      corrupt "bad array length %d" n;
    let s = r.s and off = r.pos in
    let a = Array.make n 0 in
    for i = 0 to n - 1 do
      let v = String.get_int64_le s (off + (8 * i)) in
      let x = Int64.to_int v in
      if Int64.of_int x <> v then corrupt "integer out of native range";
      Array.unsafe_set a i x
    done;
    r.pos <- off + (8 * n);
    a

  let option r f = if bool r then Some (f r) else None

  let list r f =
    let n = int r in
    if n < 0 || n > String.length r.s - r.pos then
      corrupt "bad list length %d" n;
    List.init n (fun _ -> f r)

  let expect_end r =
    if r.pos <> String.length r.s then
      corrupt "trailing bytes: %d consumed, %d present" r.pos
        (String.length r.s)
end

(* CRC-32 (IEEE 802.3 / zlib), table-driven. *)
let crc_table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref i in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff
