"""Golden parse pins: the parser's output, held fixed.

Each digest is the sha256 of ``repr(parse_program(text))`` (the frozen
AST's dataclass repr, so every field of every node counts), recorded on
the parser that looked ahead through ``Token`` objects, before the
lexer's columns replaced them.  A lexer or parser change is safe exactly
when these digests and the error table do not move: together with the
token digests of ``test_lexer.py`` they pin the whole front door.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps import APP_NAMES, build_app
from repro.cudalite.parser import parse_expr, parse_program
from repro.cudalite.unparser import unparse
from repro.errors import ParseError
from repro.fuzz.appgen import generate_app

CORPUS = Path(__file__).parent / "corpus"


def digest(text):
    return hashlib.sha256(repr(parse_program(text)).encode()).hexdigest()


#: "<app>@<scale>" -> digest of the unparsed paper app
GOLDEN_APPS = {
    "SCALE-LES@1.0": "5288e5dc63ffaa60542bca08c39b00521491a7b36327e507385af3dc5f1221ae",
    "SCALE-LES@0.5": "dac2ebfc50354a9b2ba59a2cdf925fbf7ed7c389ed19d35e86cc97d3d5283971",
    "HOMME@1.0": "0a37c52caa99694fdda2749060ae6c1462fe06ee54260bf04055c1c606ba5834",
    "HOMME@0.5": "30ed060bf36c6435f104e921c3412644877644c9eab6e55c5493862a5a9eee72",
    "Fluam@1.0": "66bd82a589af17efe6647d1322695ceef9bdbc81787b081f6c66f5ea03f4cce0",
    "Fluam@0.5": "cbcef75c091dcf64949c1b9aa81d588ff49ff5da04f4e56edf8fdd06ff4f6f54",
    "MITgcm@1.0": "1151032ea605704d4e4d1b13cbb6869301542d42f838f7478a41668a5fdb0a0c",
    "MITgcm@0.5": "510a4e74820dbe982174efb9a7b9976800c06948edfd0f03868582e1da5d3645",
    "AWP-ODC-GPU@1.0": "5e5c8ed276965c4832d36a3fcceb76c1f9c90f6f610264e537782692141a1508",
    "AWP-ODC-GPU@0.5": "929e71fc62dfd49ac0fd38797b1a8100d32b763e7595f6ad239a777f232ed67f",
    "B-CALM@1.0": "1e3db695395df5b1dba3c6cb9694c1cf6f836b09d9cf8be331bc96bba747883a",
    "B-CALM@0.5": "16578fae5e99faeb93e2977762c834dc343c1997010057ff876c6952d2c7db69",
}

#: corpus entry -> digest of its ``source``
GOLDEN_CORPUS = {
    "boundary-latency": "e5e6ed498c31217bc0a435d30d15e9825864580938f02f5a2f4e34fc46dece7b",
    "deep-loops": "beceb77f611b420105209453b214c37aaa7aca840dfd65262c95aa79d2c6a5b8",
    "default-a": "dd5a5bc433e7cd5a062fdae91ba678b15b573448e4796a170dbf227b6ee9304a",
    "default-b": "72b7d9ee9f2b5e7ba7fa9adaa424cfe770fb6cf62cfb619c452705cf2148e7b1",
    "default-c": "9725fa32f88be0b0cc7b282b1523e682cbf952980c4ece5d95cbb8a80ab83949",
    "default-d": "a0a3354c247c0c24419a98712b181053f4be9babac41671c8981ba444d089a71",
    "halo-preload": "fcf0b6954d576a2f55ff701807910f2fb2b940c3a023d37eb363284f43934f55",
    "late-hazard-rollback": "be9943dab52cee233b20585b022335a348005ad0b0955f0c7969e88988616b78",
    "race-heavy": "52059cac90269e395fb275762d5f1626764ee350e83533a20323392daa6c6527",
    "race-inplace": "44210126f84e7ae73ff947eea45e712af7d7e00b30b6999f408bf799c5a5a13c",
    "rung-complex-none": "9f008ea1f321a57eb12db3d48652cc6ebde7fe996f31d6813211699ae85e575c",
    "rung-complex-simple": "9319305e061dd630d7a981e192edaa0844d87d4464e8c505fa4bde45ec08fd5b",
    "rung-identity": "5ac39d5141a021b22cc0ecd3fae0edadc167c2a0562f72c50c14384a9ddc1dc2",
    "rung-simple-none": "e14c96b03c6331f04e70f79516bcfd5339d846d751e76c8cf77f443b5b3202ca",
    "shared-mixed": "f63f5d7c0d3f1660ce14e2bd5984fab39717950d8b54181b1dce2cb11eb4dadc",
    "shared-tiles": "7f18211ab25e11ddfb29d2b5da58ab1efca5558b1444a47c2c6a9781580e4b33",
    "thread-invariant-oob": "97f70dc2c2585b3010aa4dcac25acd8a119355db1cf12b5aee151a5fdadf3211",
    "unlowerable-mixed": "44c95d80dcae43c2e6e479925025ce6d2afd14bd498b9152020d6fbd3606c4ef",
    "unlowerable": "bac67b62c46df17ef282cf25d1579f890f392128ec9365cd9f0c106ff19596a0",
}

#: fuzz seed -> digest of ``unparse(generate_app(seed).program)``
GOLDEN_FUZZ = (
    "4bcdd7ac102387ecfdcd10e756a9f52d86ce2bc5ff59d746ce3ffab10bbd3581",
    "f63b2d3ef495c4d7ffb5b55ab12e9c955a61084ab13b07a4664ebd23c5869387",
    "e10940ad7ca63c2f2acd0d1b96fce86424355931175801a8bf119ad100ed699f",
    "dd5a5bc433e7cd5a062fdae91ba678b15b573448e4796a170dbf227b6ee9304a",
    "0f0b9b4b2691f01a0e281b6ae4d68c8c7268af30ee1a9d2a281a103a90796c7f",
    "1dfe69e329dd4c7e04407e5e255282a4b37e6d132527c9b40a7ad1da73147202",
    "b428c0cc4a5d1d17f302974157085a22c7a520582fc5d707008f79e13f0425d9",
    "5e89dc2fe90d192af530a0be30676e861c06805df296de5bd627fb32027236cb",
    "141afef2aa1cac54064acf7c718067f0d2c4e9c773ab5558cf0c9bfb3bf643c3",
    "24102df486ac9fd4cfc909b7fd338388928508e04cad183c72ef80b44200d416",
    "e14c96b03c6331f04e70f79516bcfd5339d846d751e76c8cf77f443b5b3202ca",
    "72b7d9ee9f2b5e7ba7fa9adaa424cfe770fb6cf62cfb619c452705cf2148e7b1",
    "8166f53a79896679e1594942336cb458504e4a2a177beb6afba0f8e291f6ba1e",
    "79722757e2b1e144a4bd6d4fd6d435fa31f6916c42734732182b26bf54c968e0",
    "f3cfe6e0dc5407bebc49f2a6390f6326174743ba0a43d611707c6380f71c4e16",
    "34b6b44f86a28b4917e5c3db55a686304c944350eb806930e04db184931a65bd",
    "0dfd625080be5a2059c67152421aecb276446543652b999d8af76042df09d91f",
    "f5464ffd6ac023834614c45bc41ae4d2b4375653ac93961d868f8f790f3dfb69",
    "a0b12ce94028ede0322894fa38f9a59ce804d07f619f879ea6587a804ea6b6f6",
    "fe72350a9a120f586c3545d49179ad1052c664dd38afb1721094fa096d04d6ac",
    "9513f36ff789a9dee88b2680a25b262834dcd414e7f6c75bdeae221875fe20e9",
    "cf94977ad513db5c156d56d39ff01b0a1157f800e1f14248d4186713e18f3b07",
    "0d039341632f38c8cc59821bc3ed4ec42cb8663cc8846304d5c06c3a5990d416",
    "810577762d53baffd4277371db898c6698f9726bf7dc52380963257ed821b7ef",
    "4791ef8b6c1858ab67aee3a17ec45f4de757e8f8a0802b2666fc372eb29b85d1",
    "57403fd79d58db6e9602ef03f54bb55d64079f71f71fdce3338f96ce7bebc2c9",
    "00139042a773038e17b8175286e8f2cc5a5e214b0c56d8dabe7bc240610de6f3",
    "ab3fd92ce96aafa0ad6b08817206d26644cc6f392e7691086f00102f85ce5232",
    "01681d278716eb01ccdc6ceaf4d5d0a4e72f5d6e64a15d466b00f47580cd9fbc",
    "9725fa32f88be0b0cc7b282b1523e682cbf952980c4ece5d95cbb8a80ab83949",
    "80f5a432ff809a0d310481b78baeec6ff0ba6e20e2d56aa2c9785965d9c805bf",
    "97fb3cc57d4efc85307dfbfab976e51a520ec0afbc376551aa7e3d975d69d292",
    "d0b594d943da599bf30f5ffdaf9df405ea51470104207f396126ff4485542210",
    "66b22f84fd1c3b3ff4fdfef24afe4f10e2be3ee318335e96eab50bf13f4b31e5",
    "9319305e061dd630d7a981e192edaa0844d87d4464e8c505fa4bde45ec08fd5b",
    "cbe05cc4ab650b4fce03316b03e1e12ced513c76bba93b6d3a0cbe14b8628f0a",
    "9e36e08250eb5452bdf758adb140dc1339c5247478d2ae91721e6393967fc46e",
    "cee0e0d6f62eb8f995daece7b9530de9e8ead041b70e9a0108cd290aa00ca1e3",
    "509337d2eaee38b7b1bc0759bd292c8ea111ef8b55272a3b76392d8e1237e495",
    "ea3cc78f996a57e9a740f7dcc444eae7150d9b178d422756779440f4ff6f992c",
    "7bc3db7949a31d1ca93aba455336eba126bb886b134afb00b2610cacb02d2248",
    "a0a3354c247c0c24419a98712b181053f4be9babac41671c8981ba444d089a71",
    "97b54811216e5efc5da09bfae0b035849a4032bccab07fe0f0274ac5c880f591",
    "97e7023968e5d81c29b4f1012b257d7a20eabbba65ead1aee015d8717a8fab1d",
    "eb4380bd874961530b3df85135f17a4b44c42a31f260adb988765976ef5079b8",
    "85caa891a8beab2a735b0b6dddb4b0940fa9d40aedbf3baae9960455bb09b21f",
    "ba71f6008b9d3cc297af434ff7f798f5678e0d6fd8010fea51128ef8cc597040",
    "4d07ed5dbaa93426f9f3480b6081c8d02b52dd74bb049a960086eb677e8d5a65",
    "87e0267b5090daa175e0020a6a5217f3334bc0711090ed94d58c8b453abfc3a5",
    "94876fe114145e0f89d1e8f4f1b51d6660a9fadd5ed9f484d8900e4c6982202a",
    "4f8d83524e2e749e9e4d3c11682e7ddb568febf679634375e67912aecff47298",
    "f726c6d331dc8d8a252d06740f4aa8f67002399b82050e53ffe4973f9248d7ed",
    "f3de1e0fdbc08071cee8f870d64746b202f6020e3e55d853780dbb34f57a8a8f",
    "c2aeb866acc5f55fa8f287e5e31b86e7193c31f2225bd2feb197c647b67229e5",
    "9f008ea1f321a57eb12db3d48652cc6ebde7fe996f31d6813211699ae85e575c",
    "4d4e84766dd6c429b0fb94fcddd7abaf405de9c758c1e1db73df03cb83beaff0",
    "8a9c11859509d169c978dbf7b8a1641221c354f9896a0855f079b007fb41dd55",
    "f94169f7aa504298fa2eae61aca8ee6209cc7c51eebc38784abbe1e1bec9c6bb",
    "2dfdca638e5f60d7af06d77e8decc37772dc27d38e183aff0412f7ab8f8703ef",
    "074af8a8982db17e8280b4a1f91e8addb646f6963d0907ca47e0502380b9f4aa",
    "b7b38dec01ce5b805960d6d60ecce5f169defe41e4b734bb95a6aaf2f25a66c5",
    "971e6cdd3b3402b463f4efc439b30a6ed820e43f3ccaf95cd526ef4f94548535",
    "e9d22fa5424c56ea70ed86a1de54edbdaed0a416a5dfa97f2f3010a7c3185bf2",
    "4fa6d18a29819f1d366eabf1d4c1b900fec13f73d9d0ed1440660d60926a73e9",
    "84a923f63e6e3a1a6f5ede056f38c9f86525e3288e9a8a81816c9644279a9104",
    "31f6e6415c3165945227d77ad026729c6e600bb598d35bb8428bc4b5280c3682",
    "c41b36032f50aef039125f8940e1afe900b3396046c3d07cdf84508ad152507c",
    "a85bc8e3bd78ae2de1370399bf76cb30d40edf4c649a629592b8b9310a341db3",
    "f766f7d99b6356593659dca8abec4ec3b4f5f5645f85f4f51b695d703835979b",
    "f2cde4c49731b9b076b741e3f12cb98b37d5e534240d04d4d4d30316d9c70dfe",
    "780dfd0e4e81108d4a3c068723a4602edc3e1a69a0652b0046176ac1bd06c92e",
    "dcb463f6b0697366a337c0c846ac2a9ed1fce4788c0e4a45dbc61e771c869293",
    "0bc8a390315385f62afa8ccb094b0e925f37f4a7f821f5336f08f3f5b1e39e55",
    "be45db9327ccdbd367153a98c3ae0d3a68b17edecece8f45a1450858dc01d8d8",
    "540093d59df38dcf15993e418d119880e99230a09d1ea1b852cc0b0afc1c3020",
    "d511e170bfaf87c137a19383089c07b6367a5123b5ff75313b4c4f97811c8436",
    "5ab5b3a11e503d92c94bb338aafe2d05ceafbb2a063266bcb82f029e092b33a3",
    "5d10f924b35c70a389163ad87ced7e93e8037f7acdc6d6a500efab7593124dda",
    "a09d54c02c63259c5f29854df6df41b97e3e16763aefe2e15df082e9f22a3fef",
    "79ac7139273a4ed5d5599fa79c139e2c3bce3233ea1a914cace47cc0397519c8",
    "0a64d72ae974fe572af9698a0caab2d4c41ff9d8cf5a2728d0f4e0c3762b9947",
    "f3d79d4ad9ecbcf7dfd629b34eef74fb84af00feb09824e58d7ed289ab90446e",
    "15fa78c17c0e2dd45baa7eaf88c8c41a689121e89eb12002f0afd9706889100e",
    "5b2423a06b1b7ceb89b333e8127ac055f533717c6deb13708de74f06c108ca57",
    "7ccf3afc1b5432d6d2e26c57fdd20ca9ff3d55223849d31cafb6df0fe667d24c",
    "d1d81dc007edc7c55534143fe693bef7b35a3d7f582e263f6b69598c68c98476",
    "3d4eefb5a7085a418ba507e978b9df9cb568e4a56b5b92c4ef60bee3a7316abe",
    "958493cc090fa8a8a11ef003053d290ea6e9020e8c9506d774ffaaf0b0a280d9",
    "2e3a3f1dc272f3f8cd712cd290517e4036ec9365b95037dd862526e34dcb4f42",
    "f0674d8db3d49541a568b3cbb5326cfb8e746b802f660fd04965e72e2f4718cc",
    "a869ecac36eb8954683dce4409415853824289b35054aa248d5bdddcdbc7132e",
    "422154e5f467de6ec4c8a1c2fc366d17a694b7bad10a7b3d8c8777c41b3efa9b",
    "a679c69d9105b058f15cdd6238bdf05466fc26b73a9a1ac729d6f35ad287f0be",
    "40a0433d456728e8ce6fc230b5f9f883fee00c720a48a2dfbe767b7ed300f283",
    "8143dc798b02d73cef49a551f102acebafc2c4abf16decdc7b1bbc736b348290",
    "0eb1d3ddb14b7d30113903a093d3176531e724e105e7f2d19b0c337b425b410a",
    "9e654e2ca0693c9d0ed634205a0fb03661f16f0e60e49b817d6b592cddcb929f",
    "0b9f24d54b355306ac557bf99644365a7a3ec458128d25a184abe5c910eff57f",
    "df2e592ce8decb9db4f9e19ef3f5b54e47629ddcc052013e7dabbe151d10d309",
    "9ba5ddf60f315619a2b1a1f06d4c999a85dd8c8064c342a805b128182815a332",
    "23640ee24f160b211b02e8032b441537961f2e9c3ceb3c47cb5345bae7ad651c",
    "d4ea7120bf53122bccce3b3b0e59575a46c879e5168a771b644d05644d510e59",
    "d6318256437aeb8af636fa72df2b965302b02d323f12dd6cb5f0d07adf2c2dc2",
    "54dd26897739f725776ac7e5a087437cde8ca5addf90ba2286fc677e3bb1d68f",
    "6c8182a37fa7fbc07b1fed47df347413fcf4be043d407682acb1c171800b5a9d",
    "56b112ec75db8a30650845c81d73b184a1d405e19b6d23181a7f2986e9adfb47",
    "6736c963c073d4a72a7c316c6f110908909095e4ebb579174610a17f7e0729a0",
    "26e031363dbd8b6029d7999e83651d330c7177bca5c6dd4fa15e46829207fb35",
    "71f37463ac3793a4ed8b3fe6451a39e31533337e647fd124c22cb59d9b8c0f83",
    "bd498a40da5b5631f55c2478459d6e1b630200e3e00712e7a840ca6af28fe061",
    "8be08f14a0819514b85505dfa3068f074dff3fa9bb069f4640409af4634ba723",
    "68206e10d14ed548be068a31777d23a6f0a96729dd1f778e439194940bbebe49",
    "55056e7afdbbdaee849769113a409bed1c1494d9ba356d590badc38346f70d56",
    "a748a8a8867ef81ee460a57263a401b44fb8348d829d1d1eb4295ab89ce3356f",
    "bc5c9dae8c7e9cb67d088c48de31dc7a482875a83bfe689153efe257509cabcc",
    "bc59426e23a6d22e335227724a5ec1e66cfa82cf5bac6c1b0fac71605cd1aed4",
    "0621e9a9913e6e62b29d5dae4555b486728db09b814af9b207696a6dac771d73",
    "bc1ccc5975e7fab5da43796085e884e549617a909098c6ef0d8beab2d6ba5e7b",
    "5e3fb26394f06c833bf4e5af6b77c1dd0e9d448894ca65ec572262743d5f8f8c",
    "05f60a4f6a756e4f3dfcd1962cdacb68e64639418ae0a2789ba0045c82a88992",
    "36b1f7a135498f619d10cdbd9af8defff4d01aff8cd36d5d5267380c32581da6",
    "562550d2ba0fbe8e887dd4bc020f1fe35107b23edb106b8cc9f4ac4c4a9d0c0f",
    "69f124ede8f6634741444eafc416d67a117fd421c57be0485dae1095e2c24e03",
    "5ac39d5141a021b22cc0ecd3fae0edadc167c2a0562f72c50c14384a9ddc1dc2",
    "3b47f2270b2862431271cc693a32d725d55fbd5f56816064be2f51c4c8795d27",
    "3d6274439a2029768c2f7dbbc76c609da810920edec6a53a17d444511dff51ca",
    "5c714a91e74595e6fce93f1fc41f01625718f3e3d0c2cc64a945a63b5bee3804",
    "ff4e816ebce838e3312e2fd4c32736420b8cc9271d1320f7090544c944e569f7",
    "e9d56073f949d23fb53d491d2b5eabc90e093c61203fa54858bcbbc7710b8675",
    "777075bf7b5cee933c8206087c84aee0f6c362956397823d381edf698281aa8d",
    "fc1843c1357a92953ddb398a782e8295a3a9115b42f2be2a9d8b0a2b98d78f98",
    "d8d79acf424e62a465eedb3c987c5877b6a820327e5fe75e777364c328188bc1",
    "6c5f3979951222f465cbba833b9a33400fe0e85bb100236f8bc24e2d030b0ddb",
    "d904e0c10ad799488e05a4bef0fb3223004fb06491372793a8f5ea802e2d0d11",
    "33cfa106482babfdecf868e2d64f0a66aac6fbfd85b1133ec5ec012198a79457",
    "0196970ebdf41406dc71f19619cf8e8eaba62da51021288eabd352b9a5f0a6b3",
    "f352e9de463d056f3865931b5f6acf6bf4e58c2f1d8f1584825817afc4700dea",
    "8d9fcc7bfdd8d3f1340bbfe05d79a910d94d92240ff915511994817e1ee33ce8",
    "efc47cb9e6dd3396959cf1ba6dfd3769cc136875ef467d7bb12d6939170b4aa2",
    "7ecf7985f14766810321f9c3222d0e06ca2707abcb5a7cda562b533473d43541",
    "2601e7073a3c0c7dace2d8902440007fc46942fa001878e8647a463ce1c4a42f",
    "8bc5e50ee456d481e592c07a6bdb5ed1a978ad3e752d7ad5876cf63213ef8135",
    "89f951b2202fdecfee79ca79caf046cbf56c6f574b9c75e53e3a0d6bcae6b2e6",
    "93ed57b65bc7c0a5d34dba1d7f0f686a9f56d8da275557f6aa963c12e9be8988",
    "6a6caac9b813ea5dc446123eecd48fbf09b2e0460ff9a52afaa61984d58133e5",
    "97b176fd36b7e6d32b6c543b044795d800356b786f70b900bc9c3275b8b01c3c",
    "a65c31ce4b0dcd320c4292754780ec939efbd61f26ee502aea0126370b59a4f9",
    "4b6ca50aefdad2ee174d8e5a1a248d078aaee0c1007b3ab962bb13fa4a4c0cb4",
    "fb4389e0d73e2346dca8e4813fa3cd18016f6d1b45c1c5848265cfd4a55de0f2",
    "31e5624589fd96d12cd5659c42167733421526b3c3e62dbbf8ad8d69b8c0776a",
    "cbfefa761401e5cf5c0ab54678cc23635c489650e9bea6f8705b62525063e952",
    "7627c0d24386e0ae9c229e0e62ba0b9fff2b151dd8bd43abd89dbabf8052006c",
    "c84d5f2ef8e64c67911d78abd1383a9b66079304129a7f1ce6f40186e643b890",
    "eadd50a009d1fad26079c7a99052a24084dea41c63a4c5a3a24bc956d92af3cc",
    "85125d516f23b418599872e6bb244d8013c4536295862d849baf80cf3605c720",
    "1746dbe17c53852a5f5509130006f8ea2b7139fef19f80c60b13f8acadfbbd63",
    "a5fdec47e131bc215b6c55f89f0dd8b508fd35b739db7f9e3f5f498ea9153840",
    "3f12307440bb0d495dff1c7a016142e92e730575286de5e0d461128bbe601538",
    "c02aa0efd4a9ee9d69f1a28829612039a592a1fd643e1684af9694589a973544",
    "1fa7f73bb679501729e048deb2a8f601bf4a57933d95451e27595122ba90cfc2",
    "54d82e030acb49a3ccf143b3d39acfd5fde529fb053b83fd287ac7be15317ea8",
    "5bfeeff266bea2bc618b9091194f90a5dd2cab2790f9b2133a7ce9e42406d32b",
    "80d827fffc655cfb7086fdcd35ee7dfe38373a5a9be600db4e37b327a75cfd3a",
    "f317e5f1e5e52869cd24e09ad2fd83456144c1f5b5aa1f729c08aff1adc52574",
    "bea0607ad9268e00d5e0a32d8e8543e3a48a1053d1f14e105a0969017680e033",
    "d5a463cfc1b29c9f94945b1cf9ff83ee6ccbd988384fc3c66ef213b6cf5632c8",
    "57963280eefeb2daec86d813d576169aac1e37b0d70672d18ae5ef6dee3aac47",
    "8617b31d64793e730e2c5192d39177111d44b2df563f616ca133c9ffbf42de7b",
    "b8fe8256620d209ce395099e945720d7a603754f1aa7b8c333565622eb2480df",
    "5609b4ed6b655860bec7dd2c9afa2003ba6ad468f010c68d8ce57b56e3acf8ee",
    "99d324ea7fa4a7ed0355477edaff92d24fb7ae73c683b163a718b40907e62fd0",
    "e911e60309ad14817047b3795da7e0992d84236d1868f43db6dec4f0cc718633",
    "f04453410080acfec4aa0da3dbd73d7eb98929a30d815b4375497c4e1ddf5bbc",
    "748daa7efee4e21f21c4453a8de4aeafc23d4634c004e501eda79f56a9be2ee9",
    "d4a656dc7a1157724577a376600cbb35353154d5401a672496c83ccc391e85a9",
    "70ab272e5cd2be09f3bae9e24f86fc6a17871dba92840fb654357d708a48a2e4",
    "c7f27080663ee9672021bf8b7ae60b017cac9172c31f29e1bde405df3806a1ab",
    "5443df5a70701f15c958a398d25c91d583057197a71c5ae7975ef4daa6b50437",
    "5eda9e67a29d9b7157e2f1038013dec7aea204ad59a37ac7466b0a7fff0d4ae2",
    "f6fd92eca63615c97e1e6d961db3878cb40840a39aa5e8c7e4aa7ab8537645b6",
    "7cd89bdcee2119c1e517bb9e6837d9e9d19bb556abfb654c49986d201e16693c",
    "b9e3827089d58c40e806f1e9338560791b69c1eeb9b73e1c14b9a89410e3eb45",
    "5fd80470d47c463b3ef8e8c5cd26d6aae4e47e8e3d076df5b40586b9769be3d2",
    "fa6451a5201c97956a566f779be4a4bbf4f8eaaf080f4193773ee5a82e963694",
    "f6762c6088c78da847c7c0a9792da15a026d237b9cd99918e0e879427f86c1dd",
    "57cc326d97045415e5ba071ede1b82503884fd2f56e6871c6b2cf4b707d07e7e",
    "eb19f36320f1a141cdbe42d2dc24fafae5768f5cb1eadfd97870926e8999fad2",
    "ea0d25ccc5b44b4bfb92bf265aa3d5fca8db7b329ee46c20f3ca9a54be8a8cf5",
    "8ebdfcce4c0e24647bc9405c9be8cc75df9e52f2de66b4a5c82487aeb940fbb1",
    "0d40d06f8a9ed8bce17199b449d46e6f54e479675a6ab11e69334dea653cd89e",
    "ad8ab2bd6b33a1e58eb6391a38655606935bcc68a171e261587ac0fb9003abc3",
    "00611b383b8aba1253830a2724b11bff7f74920d547a7b923ab0d4a65b260172",
    "b007021670fe0630fc3121d083b709a84809fa1d27a774d3fc5e9f4779e62a8b",
    "899732e534dabb1f72f9e45038366ebcd0c91c2dba0ed0fa6f76c445df053698",
    "175fdd7b143316b79ce3a1a4e054c9acbf4ab9223b9396342f3566d33a3a074b",
    "68a3326d9f1a283e335cd03563e32c5c7c4c74fea220989e8903ee276c3c2344",
    "38284ec741136ab093223c45132eec88e2933c3467e7f2bf307bbda2dfb4fc7e",
    "b97b81952d318d3cc82aef03cedadd019bcea48690bc8b64f4cc9fae51896c3b",
    "f32a7c0009de3b58b59d6d3be76dcc6250fa70db4361d299444e183a0cfc38d9",
    "4529b4c447db3e112f9929f7e0c3b39b92f0625a61311e99bf7a7642a6701be8",
)


@pytest.mark.parametrize("key", sorted(GOLDEN_APPS))
def test_paper_app_parse_matches_the_golden_digest(key):
    name, scale = key.split("@")
    text = unparse(build_app(name, scale=float(scale)).program)
    assert digest(text) == GOLDEN_APPS[key]


def test_golden_covers_every_paper_app_and_corpus_entry():
    assert {key.split("@")[0] for key in GOLDEN_APPS} == set(APP_NAMES)
    assert set(GOLDEN_CORPUS) == {p.stem for p in CORPUS.glob("*.json")}


@pytest.mark.parametrize("name", sorted(GOLDEN_CORPUS))
def test_corpus_parse_matches_the_golden_digest(name):
    source = json.loads((CORPUS / f"{name}.json").read_text())["source"]
    assert digest(source) == GOLDEN_CORPUS[name]


def test_fuzz_parses_match_the_golden_digests():
    moved = [
        seed
        for seed, expected in enumerate(GOLDEN_FUZZ)
        if digest(unparse(generate_app(seed).program)) != expected
    ]
    assert moved == []


# ------------------------------------------------------------ error table
#
# Malformed inputs with the exact error each raises: the message, and the
# line and column of the token it names.  Which token an error names
# depends on how far the lookahead had stepped, so these pin it.

KERNEL = "__global__ void k(double *a, int n) {\n"

PARSE_ERRORS = [
    (KERNEL + "    a[0] = 1.0;\n", ("3:1: unexpected end of input in block (got '')", 3, 1)),
    (KERNEL + "    for (int i = 0; i < n; i *= 2) { a[i] = 0.0; }\n}\n", ("2:30: unsupported loop update (got '*=')", 2, 30)),
    (KERNEL + "    for (int i = 0; i > n; i++) { }\n}\n", ("2:23: loop condition must use < or <= (got '>')", 2, 23)),
    (KERNEL + "    for (int i = 0; j < n; i++) { }\n}\n", ("2:23: loop condition must test 'i' (got '<')", 2, 23)),
    (KERNEL + "    for (int i = 0; i < n; j++) { }\n}\n", ("2:31: loop update must modify 'i' (got ')')", 2, 31)),
    (KERNEL + "    for (int i = 0; i < n; i = j + 1) { }\n}\n", ("2:34: loop update must increment the loop variable (got '+')", 2, 34)),
    (KERNEL + "    (a[0] + 1) = 2.0;\n}\n", ("3:1: assignment target must be a variable or subscript (got '}')", 3, 1)),
    (KERNEL + "    n + 1 ++;\n}\n", ("3:1: increment target must be a variable (got '}')", 3, 1)),
    (KERNEL + "    a[0] = sqrt(a[1];\n}\n", ("2:21: expected ')' (got ';')", 2, 21)),
    (KERNEL + "    a[0] = ;\n}\n", ("2:12: expected expression (got ';')", 2, 12)),
    (KERNEL + "    double x = 1.0\n}\n", ("3:1: expected ';' (got '}')", 3, 1)),
    (KERNEL + "    if (n < 1 { }\n}\n", ("2:15: expected ')' (got '{')", 2, 15)),
    ("__global__ int k() { }\n", ("1:12: expected keyword 'void' (got 'int')", 1, 12)),
    ("k();\n", ("1:1: expected kernel or host function (got 'k')", 1, 1)),
    ("void f(double) { }\n", ("1:14: expected identifier (got ')')", 1, 14)),
    ("void f(double *) { }\n", ("1:16: expected identifier (got ')')", 1, 16)),
    ("__global__ void k(double *a { }\n", ("1:29: expected ')' (got '{')", 1, 29)),
    ("int main() { k<<<1, 2>>(a); }\n", ("1:23: expected expression (got '>')", 1, 23)),
    ("int main() { k<<<1>>>(a); }\n", ("1:19: expected ',' (got '>>>')", 1, 19)),
    ("int main() { dim3 g(1, 2; }\n", ("1:25: expected ')' (got ';')", 1, 25)),
    ("int main() { __syncthreads(; }\n", ("1:28: expected ')' (got ';')", 1, 28)),
    (KERNEL + "    a[0] = x ? 1.0 2.0;\n}\n", ("2:20: expected ':' (got '2.0')", 2, 20)),
    (KERNEL + "    a[0] = p.;\n}\n", ("2:14: expected identifier (got ';')", 2, 14)),
    (KERNEL + "    a[0] = b[1;\n}\n", ("2:15: expected ']' (got ';')", 2, 15)),
]

EXPR_ERRORS = [
    ("a b", ("1:3: trailing tokens after expression (got 'b')", 1, 3)),
    ("a + ", ("1:5: expected expression (got '')", 1, 5)),
    ("(a", ("1:3: expected ')' (got '')", 1, 3)),
    ("a ? b", ("1:6: expected ':' (got '')", 1, 6)),
    ("f(a,)", ("1:5: expected expression (got ')')", 1, 5)),
    ("", ("1:1: expected expression (got '')", 1, 1)),
]


@pytest.mark.parametrize("source, expected", PARSE_ERRORS)
def test_parse_error_text_and_position(source, expected):
    with pytest.raises(ParseError) as excinfo:
        parse_program(source)
    error = excinfo.value
    assert (str(error), error.line, error.col) == expected


@pytest.mark.parametrize("source, expected", EXPR_ERRORS)
def test_expression_error_text_and_position(source, expected):
    with pytest.raises(ParseError) as excinfo:
        parse_expr(source)
    error = excinfo.value
    assert (str(error), error.line, error.col) == expected
