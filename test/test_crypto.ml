open Brdb_crypto

(* FIPS 180-4 / NIST test vectors. *)
let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ("The quick brown fox jumps over the lazy dog",
       "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
    ]
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) ("sha256 of " ^ input) expected (Sha256.hex input))
    cases

let test_sha256_million_a () =
  (* The classic 1,000,000 x 'a' vector exercises multi-block feeding. *)
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.feed ctx chunk
  done;
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Brdb_util.Hex.encode (Sha256.finalize ctx))

let test_sha256_incremental_equals_oneshot () =
  (* Feed in awkward chunk sizes across the 64-byte block boundary. *)
  let msg = String.init 300 (fun i -> Char.chr (i mod 251)) in
  List.iter
    (fun sizes ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      List.iter
        (fun sz ->
          let take = min sz (String.length msg - !pos) in
          Sha256.feed ctx (String.sub msg !pos take);
          pos := !pos + take)
        sizes;
      Sha256.feed ctx (String.sub msg !pos (String.length msg - !pos));
      Alcotest.(check string) "incremental" (Sha256.hex msg)
        (Brdb_util.Hex.encode (Sha256.finalize ctx)))
    [ [ 1; 63; 64; 65 ]; [ 55; 1; 200 ]; [ 64; 64; 64 ]; [ 299 ]; [] ]

(* Known answers for every length 0..130 of the message byte i = (31i + 7)
   mod 256, pinned from coreutils [sha256sum]: every padding case (one
   block, spill into a second block, exact block boundaries) and the
   multi-block path. *)
let kat_message = String.init 130 (fun i -> Char.chr (((31 * i) + 7) land 0xff))

let kat_digests =
  [|
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
    "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879";
    "140d811b81973993df99b8b1742b383ab83f6f52bf7af850812e7bba02ff11da";
    "647674a296197442f518bcca323ec605dd8d098b2d4f22ee1fdcdd2bb753a189";
    "b999f79c534a332dfb989ab78cda3d1967c16133ca1d668cf62737f8d768962f";
    "a7fed79902b79407088f9cc6584f7506f82d8be43dc419ff5ab1969dfdd245f5";
    "35a9838ae94607ca89c07791a9682ba4a7a4ac9a30f262439c067eeb64ae2ad1";
    "13ce3403bf0ec804d44556f2fce6a75e4117680fb8791e7bc631bb7ef0d13550";
    "4fb900ca3f5832fcc475b79bf07217bf0edfe9d39ea10f5cf624246ff68b47de";
    "1a4d14ade81567725e079c6fc24507fefef27d92c7ac4086d9f74b89ef2f0aa4";
    "49e62c55d4996b5c5092f67f3ca52e954e37310cd3e07a25be69d3f1b8d2fd98";
    "b1ea037a5a2028c5faa5eb98708424f1ac7896731528711341f236d8c19cabd1";
    "d255aafa782c787b223925cbe2cc9d234ee70cea08b951f0b0c0b3f8b82e0916";
    "dc898e8ef5663ef7a22697ee877b3c4d62ac6f2a60d87187432172e46ece2cc4";
    "4327538c6f8ae469aa369a03eddf44f38c784d258bbccb6e1a571adaa0ad9d9a";
    "45d2755c5c700f214e3422972d36e5de4416645f498926ac719fae09605c09f4";
    "f087c7ff57988205ab8885ecbfca8a77c96e91b213bdaba91143fbcd62997713";
    "b6ff0191041cc77b1ef514adaed53fdd247fd43221a629d3d7c91d14e21038a3";
    "df1d155105ed3fd5a96ac0cc8a03757b8b129af594f42415eb239a4b4bc75767";
    "b8c31728a52aa1d6dc0c74c313c5920752a3e4b6aee9af80355626e46425d870";
    "3d9862867e0f08fe66a4a8060f470d25cfb1dbf7705249bc343df0ae24aff0c0";
    "fbb90f5e6853482c6429452998cfd075da3a022b888fe1656fa06db254a5febd";
    "8f98945d76a89645faec1fa8423320e1c667fe187010df451ec31aef07ac92bc";
    "e37502a8c138a926769fa31e1f8897d8c8ce9869acbc47a08228c10733bd4a7f";
    "534ed31261a5fa7479dfdf11a17fd67c54f97f709c8d0cbc7d6cede4250848ab";
    "62394da95c50caab10618ac4b91e5855e5d6070fdbc4f3fcf236ad6131552a01";
    "476f63083003ae90ee93820b6424e7fe7225295d1df672f1980cda7611c7525d";
    "c254534705c4b62acfdb7559129a2fe1f4a6357f29adb2ce0272a5850ec18779";
    "44e10749b735119d2bb8a035ab9e80feaf2d70ff0cb4ff81009a7164ea7ef158";
    "635d558662aa3a0a816409012f1ebddd3e97e5b47b104ce3cf2fa51eac6ba03c";
    "96c7f171376cadae5507a4e86f209ecae9803c573b4c12ce092cd3a406753ee0";
    "5e5f9fa56d6337115e86a2508477e87c7d5296d0b0743ecfde2d0caeed2db37d";
    "8e889f10b21cdd1b3ad72f740317a827d76e1b5b3f721e33c566f06d1deff8ea";
    "93462e85c42aa037bc727a8c283497594aa5c844f0e5bccaa52fec34dee9f44e";
    "7eacf4e83a0c0f6a275d8638bb4139f57032be7f92faf18061ab123956e839f7";
    "694e74e19ea404ce1fa456cd86a21805c1d5e3b9ddddac82049e1930f7916207";
    "1b0e5a6e99cf2857502ea95e3c9fd8623a7b97c736d2a3ea51007cc8f4e4459d";
    "1de539554304369f30c38f449ff784bd5631da1c116826ad6bf9eb941b4def8a";
    "919d8c7274eabf2f23564d1ffaff05432563380a336ad020c475ede6f8e758db";
    "4673c1ba5e3149dc9378b6991aad7fc5b9eea309128de482e41a4a26b1014253";
    "0069ba1486c68c9d9b6696145417e15d575490572a589cb90295d1d646ab168d";
    "713465c48d1af54b1ec09afeb0ff1d2c1d903e2209e6456cb1bb406feadbdadd";
    "d59b89452cfe95dea27e9ceb867031c0d1b009b7a34f7f9579033de9fb1b7025";
    "cb2918c166fc0ce29240404ded678790ec1ed1081a44451b12db86af947409dd";
    "c6c2394c8738d718c9267fa44a604af1730c3eee5b49206eb0b3afe51fb9094f";
    "70e67c7bb6676134b17de565343d978e42a4d9c451081b52dd7305d39db8998f";
    "efe965a979e8ea0af2bc644f948b5d9ff44aa32c9ef16696e7c39b43bd34eccc";
    "0b87b79f91e5d8b08a2b987530d2661a815cb36051d1d9de643d9b77f8b0000d";
    "dfdea792658d9e37734453208d20a69207f91e45b38ba9fb35d6a855cbcaa859";
    "133936d4a4bdf0845e1a7f6eec060132a2b4f9ca028e891cc9d491f588cdf0a5";
    "9482749d4936c40304ce3449d92fd738a8bb2919dcfb63ef738a19e3a3b01d04";
    "ef91e8e4033ca1960bfd6b772d4992f661954e6285ec81c8abe8d89e2fc8a04a";
    "56d20b3f0c9a4610c8f555349d5a1acbd77f4ae92e3e1052562e1df97c1831bb";
    "6018db3f8d14f3b05f0ca750fd780750808dd09a23128cdd80a81251b2c5d519";
    "c802146d5788fb540fbf29d8ff485730ad10f4f13b78961c032e78691b582647";
    "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b";
    "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63";
    "5b46e502092be01b1100193e089fdda95638c12e19a1d24f308eb2c3d3ae849d";
    "b077ebeb8236a3aadb7f9f3fac9bf78df7e2ae0e8ca49d19f36914c66c2421ea";
    "52c10381fbaf5149f1c9a1df701baea05f74df32b80fa073943df58b61942ca2";
    "0cd53cd7093df4c301a67b8072a805e69508d9336a4a237f760dd989994fe7a2";
    "e8e5a95dd7d96e970954472cc2ed73edca2c48c710048b858c31996ce769a382";
    "8a670c7c037c3947aa18d2a2a717c1814a210f51ea22138c5bc43d5e09f63db7";
    "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076";
    "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd";
    "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0";
    "c24f29299c40d868cd7b1f5de6af00827b1a8454ed22256f8fad0a23651d8cb3";
    "978d3882da4335d999565e8f6a1ad3c67d05d13200305ca88b71c15a6e3e85c8";
    "73205e7093c6b53b335bcedba2eeea7ae1f9d2fa189709ff17c2c70b11c758b3";
    "0bc9554f0d0db189aedc00e391072ca3f9727d8b00b83fb701f0569066c01ffa";
    "d9c27945a73a9005b52f13594479b695ed1c4e96f764e62a19ea2e32af9b44e5";
    "b4d079c3da387729008e096f129032366ba3b1b13f07c57352afd083824d1de9";
    "9c6db2e3af616bebc9de6e90f9d1be29621157db8a0718aa2fe36d84fc451f87";
    "5289296269eaf1e62e77cff45f520309cb0a5d5ac7290e09be5714cb3602ffb2";
    "7bf9fa01704b1fc3a5aedb1cc286a29f2c1f380a6ef5c50f6e208e8e86b34b01";
    "56b127f7acfa1c21854e9f44179d88588f68be841c0dbaba735f65f94ba42207";
    "c30425ba5122022f0cb5f2b85fddfff45900e6e7f3bc4a064fa5bb771a3fc288";
    "2b5636493c358e72d577ce8afbeb79e6757c188a6fd31d029a2821e85542833b";
    "677f8cc982301dc75b9b988799379e69b7b676b117d886466692081cb33c0bc3";
    "9f419c1f641a930b61e7861f11c3dd716bc05991a072efb8b5bbef7436d19aa2";
    "b26499a826b8b46533c2d582cd456c0c3ef988e52c4f2af931b44baaf18de26c";
    "2cbbfa85a5052ffdf904ef426414e11201bf118874ace71e173822b1f037d38b";
    "5ee37ccff83bb4c9590fbb0ed39bbf48cabcbc5af621793c3bde3140c24e805d";
    "d148a9b0b08ada1301de8deaf952ed6d9ef8722928d57d2dc6104ed4eb3a1a47";
    "a73b761738961969a2dd7b875bdd38fcd0b1abea466bda5872f5bf1de8511d84";
    "210e074eadded47ed7cb727d9748bd14cafda623bc6947cc1e6302688da64d22";
    "a305fec92849b9c0765508d5010aff39ff3126e4ff4e10072199d8c02ce8defe";
    "ad5d8afb4c5cebec996abb96f7e9a1341c4b30db6d105dbb081d98454cfc7a6b";
    "efec7be79a6481cece434f8b463bc7800d10b8208c93b4fcc8c71f7f6701f71e";
    "61208160d58e9662571cda06cb9714095edf50393caee99cb75c5a26f488e19b";
    "2510bce9f3bed86186f4a98def953dad75bb13a89356426603a22f81c9ea5768";
    "25430c9c296d09c08f26d7efd74da726e8b705275e7a212a1fbf9d611c54c84f";
    "087ae647d38e728654b8d64960b8b59f31e46f98186f36e2e6a87e9ff6a6418d";
    "faced2ae498e7cce764c5f3c6a59610ec089b9d8ab67a2f81c1fca0b4403934e";
    "9d362998ae54695e7f832df638a353822f1283a49118f908703fdb0803509424";
    "d8c1f906be7970fa1b45890c5b45f94564ce77dd02bdb8cf0b869ca0afaa89e5";
    "d6c2773235f3785b4cf0f2b11861675cfd7f2a033ae69df9009cce1a787188b7";
    "15218c39030268e3258c9d4a8d3f284885a3784d0a0eb64d0e3ff99630457198";
    "c0744ab5ad80d3d6b460729c98230900a31d8c458ea5b462c79ed8a255e230a4";
    "717c23feab1f6a3a42269fc90b88799a1634028b67423f14b8602498bb952546";
    "c22e490daa445fb2fba44278c022df135310fd278cabca4ad7919eddcccd1dce";
    "e074ec684ae30cd662349906698baedc326789d9048ddd3dc1d43c6fcd5ab215";
    "52b5aad34021e9763bd2f719103edc8792bbf1250064eaaeab3b618cb31f1605";
    "e571c2a147c1eceec5dd8b6aeb1889aae50ea41b623d3026abc665acff5201f9";
    "23741790d156ecb2e1f43040faf528c96695945ff60b140c017b18137ca88888";
    "b9eeabc1150408b0798f41474ca2631a1e1d21d596db4420f3e23a2e05b3d9e3";
    "5d996879165390ac46419c0d499872248af518d37f368517d601e9404dd4e543";
    "49b9f17a7f3c6d94ae8b82ae9f94f367750c2c96b5b3e512c0c70cc818caf741";
    "189fbfd57dd81e95f3328c00adf69cc226c6c6081b21dc12f60ee1505d8d966c";
    "28ff771381251bcd442093a809a61095f53d6b83b7df9e59d142570bfc2a2835";
    "fe47c5a8d830476f3857f334a8a6d25f51270b9ab6f5d6dfaf5cb87b57c7aa91";
    "dd1413178fb627f9abbc041ffe39c44aa7aaa0e2e6d2ca5c4528ac7073a2da45";
    "a65c92dac124062d0ab951a42773cb04fc98d1d4bf8897b176f8cff3509d379e";
    "6f184b6619128e865ecb2b3ea96c03d461f0664d87689480988dbee53a449161";
    "81a8edf98294aab58cd1624aa4eca96e7f12de7de41005d08a5dc160a3c66ed6";
    "acb4c84cb17d887b3411a138a357b52be28f487418f65a0c5dc3b11a1337ec6f";
    "0d6a9d84e67cb35fb772c46763b46b72e229b5f76663c5ed53343424775ad100";
    "af7b162f08dae5e87b4008e21010c646a576e3372d6814edd32f9d01949deca9";
    "e96230c1485dd2e36f02f30932b0e2acf725283090cfdd8c58fce6bf523edd26";
    "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe";
    "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656";
    "614571410beab3df68d50132a341d338575653da8374c630441bbe380b9b3136";
    "d728ad2179214f0cb2b01d264d8b7fb26893e310599d5d419c7a9f92ca293664";
    "893ef3f88cf4382f5d660f694b6b4213960adffa842aca38988fcbc7ea5b58dc";
    "2a4c07c863a78da189481963834179ff348b51630ccf098b923d871ff748403d";
    "5ef8fed0986749855f87f2125e13fe813d9c1428ef0ef36bf49395b53d14c85a";
    "5aa67f561ca036a72db939b4d4b14975505f08fc1564036822a1639a5b09dfb8";
    "192409cd280e14b743642ad1343fbd3e82d9305de72c078117745a679210cc3d";
    "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356";
    "81e89a7b2911aaa7795f9e3d4910cb47d6cd2b00d83b8399481527261a1a7519";
    "1c7c3b5eee94d4fa8b41754b89153e50491838d0d3e49b0273d6f12cae12e387";
  |]

let test_sha256_every_length () =
  Array.iteri
    (fun n expected ->
      Alcotest.(check string)
        (Printf.sprintf "length %d" n)
        expected
        (Sha256.hex (String.sub kat_message 0 n)))
    kat_digests

let test_sha256_split_feed_every_offset () =
  (* Two feeds split at every offset, and the same bytes fed one at a
     time, all equal the one-shot digest. *)
  let expected = kat_digests.(130) in
  for cut = 0 to 130 do
    let ctx = Sha256.init () in
    Sha256.feed ctx (String.sub kat_message 0 cut);
    Sha256.feed ctx (String.sub kat_message cut (130 - cut));
    Alcotest.(check string)
      (Printf.sprintf "split at %d" cut)
      expected
      (Brdb_util.Hex.encode (Sha256.finalize ctx))
  done;
  let ctx = Sha256.init () in
  String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) kat_message;
  Alcotest.(check string) "byte at a time" expected (Brdb_util.Hex.encode (Sha256.finalize ctx))

let test_digest_concat_framing () =
  (* The streamed framing is the 4-byte big-endian length of each part
     followed by its bytes. *)
  let parts = [ ""; "a"; String.make 300 'x'; kat_message ] in
  let be32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)) in
  let framed = String.concat "" (List.map (fun p -> be32 (String.length p) ^ p) parts) in
  Alcotest.(check string) "digest_concat = digest of framed bytes" (Sha256.hex framed)
    (Brdb_util.Hex.encode (Sha256.digest_concat parts))

let test_digest_concat_unambiguous () =
  let a = Sha256.digest_concat [ "ab"; "c" ] in
  let b = Sha256.digest_concat [ "a"; "bc" ] in
  Alcotest.(check bool) "different splits differ" false (String.equal a b);
  let c = Sha256.digest_concat [ "ab"; "c" ] in
  Alcotest.(check bool) "deterministic" true (String.equal a c)

(* RFC 4231 HMAC-SHA256 test vectors. *)
let test_hmac_vectors () =
  Alcotest.(check string) "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.hex ~key:(String.make 20 '\x0b') "Hi There");
  Alcotest.(check string) "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.hex ~key:"Jefe" "what do ya want for nothing?");
  Alcotest.(check string) "rfc4231 long key"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.hex
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_field61_basics () =
  let open Field61 in
  Alcotest.(check int64) "p" 2305843009213693951L p;
  Alcotest.(check int64) "norm negative" (Int64.sub p 1L) (norm (-1L));
  Alcotest.(check int64) "add wraps" 0L (add (Int64.sub p 1L) 1L);
  Alcotest.(check int64) "sub wraps" (Int64.sub p 1L) (sub 0L 1L);
  Alcotest.(check int64) "mul small" 12L (mul 3L 4L);
  Alcotest.(check int64) "pow" 1024L (pow 2L 10L);
  (* Fermat: a^(p-1) = 1 mod p for a != 0. *)
  Alcotest.(check int64) "fermat" 1L (pow 123456789L (Int64.sub p 1L))

(* The Int64 implementation Field61 had before it moved onto native ints,
   kept verbatim as the reference the native kernels must match. *)
module Field61_ref = struct
  let p = 2305843009213693951L

  let norm x =
    let x = Int64.rem x p in
    if Int64.compare x 0L < 0 then Int64.add x p else x

  let add a b =
    let s = Int64.add a b in
    if Int64.compare s p >= 0 then Int64.sub s p else s

  let sub a b = if Int64.compare a b >= 0 then Int64.sub a b else Int64.add (Int64.sub a b) p

  let reduce x =
    let lo = Int64.logand x (Int64.sub (Int64.shift_left 1L 61) 1L) in
    let hi = Int64.shift_right_logical x 61 in
    let s = Int64.add lo hi in
    if Int64.compare s p >= 0 then Int64.sub s p else s

  let mul a b =
    let mask31 = 0x7fffffffL in
    let a1 = Int64.shift_right_logical a 31 in
    let a0 = Int64.logand a mask31 in
    let b1 = Int64.shift_right_logical b 31 in
    let b0 = Int64.logand b mask31 in
    let t_hh = reduce (Int64.mul a1 b1) in
    let t_hh = add t_hh t_hh in
    let mid = Int64.add (Int64.mul a1 b0) (Int64.mul a0 b1) in
    let mid_hi = Int64.shift_right_logical mid 30 in
    let mid_lo = Int64.logand mid 0x3fffffffL in
    let t_mid = add (reduce mid_hi) (reduce (Int64.shift_left mid_lo 31)) in
    let t_ll = reduce (Int64.mul a0 b0) in
    add (add t_hh t_mid) t_ll

  let pow b e =
    let rec loop acc b e =
      if Int64.equal e 0L then acc
      else
        let acc = if Int64.equal (Int64.logand e 1L) 1L then mul acc b else acc in
        loop acc (mul b b) (Int64.shift_right_logical e 1)
    in
    loop 1L (norm b) e

  module Order = struct
    let n = Int64.sub p 1L

    let norm x =
      let x = Int64.rem x n in
      if Int64.compare x 0L < 0 then Int64.add x n else x

    let add a b =
      let s = Int64.add a b in
      if Int64.compare s n >= 0 then Int64.sub s n else s

    let sub a b =
      if Int64.compare a b >= 0 then Int64.sub a b else Int64.add (Int64.sub a b) n

    let mul a b =
      let a = norm a and b = norm b in
      let rec loop acc a b =
        if Int64.equal b 0L then acc
        else
          let acc = if Int64.equal (Int64.logand b 1L) 1L then add acc a else acc in
          loop acc (add a a) (Int64.shift_right_logical b 1)
      in
      loop 0L a b
  end
end

(* Field elements: uniform int64s folded into [0, p), mixed with the edges
   0, 1, p - 2 and p - 1 = 2^61 - 2. Exponents: any non-negative int64,
   mixed with values >= 2^62, whose top bit a native int cannot hold. *)
let edge_elements = [ 0L; 1L; Int64.sub Field61.p 2L; Int64.sub Field61.p 1L ]

let arb_element =
  QCheck.make ~print:Int64.to_string
    QCheck.Gen.(
      frequency
        [ (1, oneofl edge_elements); (3, map Field61_ref.norm (QCheck.get_gen QCheck.int64)) ])

let arb_exponent =
  QCheck.make ~print:Int64.to_string
    QCheck.Gen.(
      let non_negative = map (Int64.logand Int64.max_int) (QCheck.get_gen QCheck.int64) in
      frequency
        [
          (1, oneofl [ 0L; 1L; Int64.sub Field61.p 1L; Int64.shift_left 1L 62; Int64.max_int ]);
          (2, non_negative);
          (2, map (Int64.logor (Int64.shift_left 1L 62)) non_negative);
        ])

let prop_field61_native_matches_int64 =
  QCheck.Test.make ~name:"field61 native add/sub/mul/pow/Order.mul = Int64 reference"
    ~count:1000
    QCheck.(triple arb_element arb_element arb_exponent)
    (fun (a, b, e) ->
      Int64.equal (Field61.add a b) (Field61_ref.add a b)
      && Int64.equal (Field61.sub a b) (Field61_ref.sub a b)
      && Int64.equal (Field61.mul a b) (Field61_ref.mul a b)
      && Int64.equal (Field61.pow a e) (Field61_ref.pow a e)
      && Int64.equal (Field61.norm e) (Field61_ref.norm e)
      && Int64.equal (Field61.Order.norm e) (Field61_ref.Order.norm e)
      && Int64.equal (Field61.Order.mul a e) (Field61_ref.Order.mul a e)
      &&
      let a = Field61.Order.norm a and b = Field61.Order.norm b in
      Int64.equal (Field61.Order.add a b) (Field61_ref.Order.add a b)
      && Int64.equal (Field61.Order.sub a b) (Field61_ref.Order.sub a b))

let test_field61_edges () =
  (* Every pair of edge elements, against every edge exponent. *)
  let exps = [ 0L; 1L; 2L; Int64.sub Field61.p 1L; Int64.shift_left 1L 62; Int64.max_int ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int64) "mul" (Field61_ref.mul a b) (Field61.mul a b);
          Alcotest.(check int64) "Order.mul" (Field61_ref.Order.mul a b) (Field61.Order.mul a b))
        edge_elements;
      List.iter
        (fun e -> Alcotest.(check int64) "pow" (Field61_ref.pow a e) (Field61.pow a e))
        exps)
    (37L :: edge_elements)

let prop_field61_mul_matches_reference =
  (* Cross-check mul against a reference built from pow/add on small
     decompositions: a*b = sum over set bits of b of a*2^i. *)
  let gen = QCheck.int64 in
  QCheck.Test.make ~name:"field61 mul = shift-add reference" ~count:500
    (QCheck.pair gen gen)
    (fun (a, b) ->
      let a = Field61.norm a and b = Field61.norm b in
      let reference =
        let acc = ref 0L and cur = ref a and e = ref b in
        while not (Int64.equal !e 0L) do
          if Int64.equal (Int64.logand !e 1L) 1L then acc := Field61.add !acc !cur;
          cur := Field61.add !cur !cur;
          e := Int64.shift_right_logical !e 1
        done;
        !acc
      in
      Int64.equal (Field61.mul a b) reference)

let prop_field61_mul_commutative_assoc =
  let gen = QCheck.int64 in
  QCheck.Test.make ~name:"field61 mul commutative+associative" ~count:300
    (QCheck.triple gen gen gen)
    (fun (a, b, c) ->
      let a = Field61.norm a and b = Field61.norm b and c = Field61.norm c in
      Int64.equal (Field61.mul a b) (Field61.mul b a)
      && Int64.equal (Field61.mul a (Field61.mul b c)) (Field61.mul (Field61.mul a b) c))

let prop_field61_distributive =
  let gen = QCheck.int64 in
  QCheck.Test.make ~name:"field61 distributivity" ~count:300
    (QCheck.triple gen gen gen)
    (fun (a, b, c) ->
      let a = Field61.norm a and b = Field61.norm b and c = Field61.norm c in
      Int64.equal
        (Field61.mul a (Field61.add b c))
        (Field61.add (Field61.mul a b) (Field61.mul a c)))

let prop_field61_pow_laws =
  QCheck.Test.make ~name:"field61 pow: g^(a+b) = g^a * g^b" ~count:200
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (a, b) ->
      let g = 37L in
      let pa = Field61.pow g (Int64.of_int a) in
      let pb = Field61.pow g (Int64.of_int b) in
      Int64.equal (Field61.pow g (Int64.of_int (a + b))) (Field61.mul pa pb))

let test_schnorr_sign_verify () =
  let sk, pk = Schnorr.keygen ~seed:"org1/alice" in
  let msg = "transfer 10 from a to b" in
  let sg = Schnorr.sign sk msg in
  Alcotest.(check bool) "valid" true (Schnorr.verify pk msg sg);
  Alcotest.(check bool) "wrong msg" false (Schnorr.verify pk (msg ^ "!") sg);
  let _, pk2 = Schnorr.keygen ~seed:"org2/bob" in
  Alcotest.(check bool) "wrong key" false (Schnorr.verify pk2 msg sg)

let test_schnorr_deterministic () =
  let sk, _ = Schnorr.keygen ~seed:"org1/alice" in
  let s1 = Schnorr.sign sk "m" and s2 = Schnorr.sign sk "m" in
  Alcotest.(check string) "same signature"
    (Schnorr.signature_to_string s1) (Schnorr.signature_to_string s2)

let test_schnorr_serialization () =
  let sk, pk = Schnorr.keygen ~seed:"x" in
  let sg = Schnorr.sign sk "payload" in
  match Schnorr.signature_of_string (Schnorr.signature_to_string sg) with
  | None -> Alcotest.fail "roundtrip failed"
  | Some sg' -> Alcotest.(check bool) "still valid" true (Schnorr.verify pk "payload" sg')

let test_schnorr_garbage_signature () =
  Alcotest.(check bool) "no colon" true (Schnorr.signature_of_string "zzz" = None);
  Alcotest.(check bool) "bad hex" true (Schnorr.signature_of_string "xx:yy" = None)

let prop_schnorr_roundtrip =
  QCheck.Test.make ~name:"schnorr verify(sign m) over random messages" ~count:100
    QCheck.(pair small_string string)
    (fun (seed, msg) ->
      let sk, pk = Schnorr.keygen ~seed in
      Schnorr.verify pk msg (Schnorr.sign sk msg))

let test_merkle_empty_and_single () =
  let r0 = Merkle.root [] in
  let r1 = Merkle.root [ "tx1" ] in
  Alcotest.(check bool) "empty != single" false (String.equal r0 r1);
  Alcotest.(check string) "deterministic" (Brdb_util.Hex.encode r1)
    (Brdb_util.Hex.encode (Merkle.root [ "tx1" ]))

let test_merkle_order_sensitive () =
  let a = Merkle.root [ "t1"; "t2" ] and b = Merkle.root [ "t2"; "t1" ] in
  Alcotest.(check bool) "order matters" false (String.equal a b)

let test_merkle_proofs () =
  let leaves = [ "a"; "b"; "c"; "d"; "e" ] in
  let r = Merkle.root leaves in
  List.iteri
    (fun i leaf ->
      let proof = Merkle.prove leaves i in
      Alcotest.(check bool) (Printf.sprintf "leaf %d verifies" i) true
        (Merkle.check ~root:r ~leaf proof);
      Alcotest.(check bool) (Printf.sprintf "leaf %d wrong leaf fails" i) false
        (Merkle.check ~root:r ~leaf:"zzz" proof))
    leaves

let test_merkle_proof_wrong_position_fails () =
  let leaves = [ "a"; "b"; "c"; "d" ] in
  let r = Merkle.root leaves in
  (* a proof for position 0 must not verify leaf at position 1 *)
  let proof0 = Merkle.prove leaves 0 in
  Alcotest.(check bool) "cross-position fails" false
    (Merkle.check ~root:r ~leaf:"b" proof0)

let test_merkle_proof_out_of_range () =
  Alcotest.check_raises "oob" (Invalid_argument "Merkle.prove: index out of range")
    (fun () -> ignore (Merkle.prove [ "a" ] 1))

let prop_merkle_proofs_verify =
  QCheck.Test.make ~name:"merkle proofs verify for random leaf sets" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) small_string)
    (fun leaves ->
      let r = Merkle.root leaves in
      List.for_all
        (fun i -> Merkle.check ~root:r ~leaf:(List.nth leaves i) (Merkle.prove leaves i))
        (List.init (List.length leaves) Fun.id))

(* The list-based tree and string-built framing Merkle had before its
   hashes were streamed: leaves hash ["\x00" ^ x], nodes hash the
   digest_concat of [["\x01"; l; r]], odd nodes are promoted. *)
let merkle_reference_root leaves =
  let leaf x = Sha256.digest ("\x00" ^ x) in
  let node l r = Sha256.digest_concat [ "\x01"; l; r ] in
  let rec level = function
    | [] -> []
    | [ x ] -> [ x ]
    | a :: b :: rest -> node a b :: level rest
  in
  let rec fold = function
    | [] -> Sha256.digest "brdb-merkle-empty"
    | [ x ] -> x
    | xs -> fold (level xs)
  in
  fold (List.map leaf leaves)

let test_merkle_streamed_framing () =
  Alcotest.(check string) "leaf" (Sha256.hex ("\x00" ^ "tx1"))
    (Brdb_util.Hex.encode (Merkle.root [ "tx1" ]));
  let l = Sha256.digest "\x00a" and r = Sha256.digest "\x00b" in
  Alcotest.(check string) "node"
    (Brdb_util.Hex.encode (Sha256.digest_concat [ "\x01"; l; r ]))
    (Brdb_util.Hex.encode (Merkle.root [ "a"; "b" ]));
  for n = 0 to 17 do
    let leaves = List.init n (fun i -> String.make i 'x') in
    Alcotest.(check string)
      (Printf.sprintf "root of %d leaves" n)
      (Brdb_util.Hex.encode (merkle_reference_root leaves))
      (Brdb_util.Hex.encode (Merkle.root leaves))
  done

let prop_merkle_root_matches_reference =
  QCheck.Test.make ~name:"merkle root = list-based reference" ~count:100
    QCheck.(list_of_size Gen.(0 -- 40) string)
    (fun leaves -> String.equal (Merkle.root leaves) (merkle_reference_root leaves))

let test_identity_registry () =
  let reg = Identity.Registry.create () in
  let alice = Identity.create "org1/alice" in
  let bob = Identity.create "org1/bob" in
  Alcotest.(check bool) "register alice" true (Identity.Registry.register reg alice = Ok ());
  Alcotest.(check bool) "register bob" true (Identity.Registry.register reg bob = Ok ());
  Alcotest.(check bool) "re-register same ok" true (Identity.Registry.register reg alice = Ok ());
  let fake = Identity.create "org1/alice-evil" in
  Alcotest.(check bool) "conflict"
    true
    (Identity.Registry.register_key reg ~name:"org1/alice" (Identity.public_key fake)
    = Error `Conflict);
  let sg = Identity.sign alice "hello" in
  Alcotest.(check bool) "verify ok" true (Identity.Registry.verify reg ~name:"org1/alice" "hello" sg);
  Alcotest.(check bool) "verify wrong name" false
    (Identity.Registry.verify reg ~name:"org1/bob" "hello" sg);
  Alcotest.(check bool) "verify unknown" false
    (Identity.Registry.verify reg ~name:"nobody" "hello" sg);
  Identity.Registry.remove reg "org1/bob";
  Alcotest.(check bool) "removed" false (Identity.Registry.mem reg "org1/bob");
  Alcotest.(check (list string)) "names" [ "org1/alice" ] (Identity.Registry.names reg)

(* Words the minor heap grows by while [f] runs, after one warm-up call.
   Native code only: bytecode boxes every intermediate, so the budgets
   below describe the native kernels. *)
let minor_words_of f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_allocation_budgets () =
  if Sys.backend_type = Sys.Native then begin
    let sk, pk = Schnorr.keygen ~seed:"org1/alice" in
    let msg = String.make 50 'm' in
    let sg = Schnorr.sign sk msg in
    let leaves = List.init 100 (fun i -> Printf.sprintf "leaf-%04d" i) in
    let e = Int64.sub Field61.p 2L in
    List.iter
      (fun (name, budget, f) ->
        let words = minor_words_of f in
        if words > budget then
          Alcotest.failf "%s allocated %.0f words (budget %.0f)" name words budget)
      [
        ("Field61.pow", 16., fun () -> Obj.repr (Field61.pow 37L e));
        ("Sha256.digest of 50 B", 40., fun () -> Obj.repr (Sha256.digest msg));
        ("Schnorr.verify", 100., fun () -> Obj.repr (Schnorr.verify pk msg sg));
        ("Merkle.root of 100 leaves", 8000., fun () -> Obj.repr (Merkle.root leaves));
      ]
  end

let suites =
  [
    ( "crypto.sha256",
      [
        Alcotest.test_case "NIST vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "million 'a'" `Slow test_sha256_million_a;
        Alcotest.test_case "incremental = one-shot" `Quick test_sha256_incremental_equals_oneshot;
        Alcotest.test_case "digest_concat unambiguous" `Quick test_digest_concat_unambiguous;
        Alcotest.test_case "known answers, lengths 0..130" `Quick test_sha256_every_length;
        Alcotest.test_case "split feed at every offset" `Quick test_sha256_split_feed_every_offset;
        Alcotest.test_case "digest_concat framing" `Quick test_digest_concat_framing;
      ] );
    ("crypto.hmac", [ Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_vectors ]);
    ( "crypto.field61",
      [
        Alcotest.test_case "basics" `Quick test_field61_basics;
        QCheck_alcotest.to_alcotest prop_field61_mul_matches_reference;
        QCheck_alcotest.to_alcotest prop_field61_mul_commutative_assoc;
        QCheck_alcotest.to_alcotest prop_field61_distributive;
        QCheck_alcotest.to_alcotest prop_field61_pow_laws;
        Alcotest.test_case "edges = Int64 reference" `Quick test_field61_edges;
        QCheck_alcotest.to_alcotest prop_field61_native_matches_int64;
      ] );
    ( "crypto.schnorr",
      [
        Alcotest.test_case "sign/verify" `Quick test_schnorr_sign_verify;
        Alcotest.test_case "deterministic" `Quick test_schnorr_deterministic;
        Alcotest.test_case "serialization" `Quick test_schnorr_serialization;
        Alcotest.test_case "garbage signatures" `Quick test_schnorr_garbage_signature;
        QCheck_alcotest.to_alcotest prop_schnorr_roundtrip;
      ] );
    ( "crypto.merkle",
      [
        Alcotest.test_case "empty/single" `Quick test_merkle_empty_and_single;
        Alcotest.test_case "order sensitive" `Quick test_merkle_order_sensitive;
        Alcotest.test_case "inclusion proofs" `Quick test_merkle_proofs;
        Alcotest.test_case "proof out of range" `Quick test_merkle_proof_out_of_range;
        Alcotest.test_case "cross-position proof fails" `Quick test_merkle_proof_wrong_position_fails;
        QCheck_alcotest.to_alcotest prop_merkle_proofs_verify;
        Alcotest.test_case "streamed framing = string framing" `Quick test_merkle_streamed_framing;
        QCheck_alcotest.to_alcotest prop_merkle_root_matches_reference;
      ] );
    ("crypto.identity", [ Alcotest.test_case "registry" `Quick test_identity_registry ]);
    ("crypto.alloc", [ Alcotest.test_case "native word budgets" `Quick test_allocation_budgets ]);
  ]
