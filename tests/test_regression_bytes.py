"""Byte-identical CLI reports: sha256 of stdout and the exit code, per command.

The digests were captured from the Fraction exp -> log -> exp implementation
of q, q_L and their roots, before the integer exp kernel replaced it.  They
cover the corpus, verify and series for the corpus specs at their corpus
orders (q and every level), wrong roots and a non-Landau spec, whose reports
carry first_bad_index and first_bad_coefficient, and a Zhou batch.

The digests after the first Zhou batch were captured from q_ratio,
harmonic's prefix cache and Fraction-valued profiles, before F, G and G_L
were built step by step on integers.  They cover delta for the corpus specs,
the 1806 Zhou spec, a non-Landau and an unbalanced spec; F and G for the
corpus specs at their corpus orders; and a Zhou batch that reaches k = 1806.

The padic digests were captured while phi and S still read Q and H through
q_ratio's lru_cache and harmonic's prefix list, before each scan built its
own tables from q_ratios and harmonic_sums.  They cover the phi, S and
lemma24 grids and a one-level phi scan for 6/3,2,1 and 12/4,3,3,2.  The two
S digests were captured again when the S row began to carry the required
valuation s+1+mu_p(m) of its least-margin point instead of 0; the rest of
those reports is unchanged.

The exponents digests and the two padic digests of the unbalanced spec
3/1,1,1,1 were captured while reference_exponents still read Q(1) and H_l
through q_ratio and harmonic, and while phi was reduced to lowest terms at
every grid point.  They cover Theta, Xi and Omega for the corpus specs, the
1806 Zhou spec, 4/1,1,1,1, 5/1,1,1,1,1 and a non-Landau spec, and the
Fraction-valued phi and S sums of a case-(i) spec whose Q(n) are not
integers (both padic reports exit 1).

The next six digests were captured while exp_quotient_root still took 1/F,
cached as ints on the bundle, before it solved F h = G directly.  They reach
past order 40: a level root and a root of q at orders 150-200, the 1806 Zhou
spec (the largest growth of the common denominator delta), a level map of a
non-Landau spec whose F is not integral, and a Zhou batch written as CSV to
stdout.

The last seven digests were captured while every root verdict still ran
the exp kernel, before passing roots were certified by the Dieudonne-Dwork
congruence on p-adic residues.  They cover the zhou --n-max 5 --order 20
batch, level roots of 12/4,3,3,2 at multiples of D_L that pass (2 D_1 at
L=1, 6 D_5 at L=5) and one that fails (4 D_1), the root of exponent 2k
of the 1806 Zhou spec, and two prime orders (41 and 43), where the
prime equal to the order enters the congruence.

The last eight digests were captured while the exp kernel still grew its
common denominator step by step and the Dwork certifier took primes above
the order one gcd at a time, before both read G over one denominator from
series.common_denominator.  They are the README's example commands that
no digest above covers: an F series, a level map at order 20, the README's
level and cube roots, and one padic report each of phi, S, the harmonic
lemma and lemma24 (the harmonic report had no digest at all).

The last four digests were captured while the phi and harmonic-lemma scans
still took v_p of exact Fractions at every grid point, before they read
residues mod p^(E+D) and fell back to exact values only on a zero residue.
They cover the phi grid of 12/4,3,3,2 at K <= 25 (the padic-scan
benchmark's grid), its harmonic grid at m <= 20, the phi grid of the
non-integral-Q spec 3/1,1,1,1 (exit 1), and the p = 7 harmonic grid at
s <= 3, m <= 40.

The last three digests were captured while the S and lemma24 scans still
took v_p of an exact block sum at every grid point and checked lemma 2.4
point by point, before S read one prefix-sum pass of residues per (a, K)
and the lemma read max v_p(Lm+u) from one interval per (s, L, m).  They
cover the padic-scan benchmark's S grid at K, m <= 30 and its lemma24 grid
at m <= 60, and the S grid of the non-integral-Q spec 3/1,1,1,1 at
K, m <= 20, s <= 3 (exit 1, with a witness).

The final two digests were captured while G was still Q(n) times a running
harmonic weight, before it was read from F by differentiating Q's
recurrence over the jumps of D.  They cover the Fraction path of that
recurrence (the non-Landau 2,2/3,1) and the largest Zhou spec at the
batch's order 20.
"""

import contextlib
import hashlib
import io

import pytest

from mirrorint.cli import main

# (command line, exit code, sha256 of stdout)
GOLDEN = (
    ("corpus", 0, "e1a9c5f0d71c798e6e1428dcf5c84eff0cb329dadbf3fdbe682fe1d7c6eee1e1"),
    ("verify --spec 6/3,2,1 --target q --order 40", 0, "32b3fde81f8b7345d21818efded029e5c7158ab37153f0cdbcbb64bd0616ddf9"),
    ("series --spec 6/3,2,1 --target q --order 40", 0, "25d823ef9305a1a361a65e59214d177139775d94050ae0bac6fcf0d9664ff144"),
    ("verify --spec 6/3,2,1 --target qL --L 1 --order 40", 0, "25a7260fcd1a30bb91d28c16130d3eb7eb54f754da77e3da5c2c005a7314ba42"),
    ("series --spec 6/3,2,1 --target qL --L 1 --order 40", 0, "a73177777fe18ab9c53db0ae0de12d426ac873c41094d780f7e7eb0eb198e4bf"),
    ("verify --spec 6/3,2,1 --target qL --L 2 --order 40", 0, "a84bc3a3ed4ebfb15165ce205d520beda63bbd2e227ee0f812859a3c3ef758aa"),
    ("series --spec 6/3,2,1 --target qL --L 2 --order 40", 0, "c0176440b67f972e03fff265dcdb60537c49216a3dd9e641ac2ac4174420cca2"),
    ("verify --spec 6/3,2,1 --target qL --L 3 --order 40", 0, "0c5ce35c4816100c199ae0ae18490922c19f07a4f074275c2c63308a45a407ee"),
    ("series --spec 6/3,2,1 --target qL --L 3 --order 40", 0, "0680462a62b3e4bc347e6f342a924a5966991476b45884a22cbcf6d53f58f000"),
    ("verify --spec 6/3,2,1 --target qL --L 4 --order 40", 0, "374555f8f8099d2ef0cc22c8fdf148c216a118cd283f3fb73eba20f4c2f5ec0b"),
    ("series --spec 6/3,2,1 --target qL --L 4 --order 40", 0, "1cf12140a6f43bd799c59f0496deba77bd1d0264b33fd75d1b6966e29c489a4b"),
    ("verify --spec 6/3,2,1 --target qL --L 5 --order 40", 0, "59bed73d3e66d0c08a3844c836384567ddbf39604cafa8f9cdf61b2702a134eb"),
    ("series --spec 6/3,2,1 --target qL --L 5 --order 40", 0, "89dc1a482026bb229386799575c70c78ecfeff3ce6578375025c759cf16735cc"),
    ("verify --spec 6/3,2,1 --target qL --L 6 --order 40", 0, "09804cd1a9d5246825e06a57abfa475d1da043e66ade27b06c705437463c5f11"),
    ("series --spec 6/3,2,1 --target qL --L 6 --order 40", 0, "c70e724d033ae623330c3be2c0bba559856b47480c98fe8a5d04dff4e2665139"),
    ("verify --spec 12/4,3,3,2 --target q --order 30", 0, "e9c3cfb9de139fd7af744fdb8216c89d431cd6dfe6e271459a816b72fe592648"),
    ("series --spec 12/4,3,3,2 --target q --order 30", 0, "0d50a70cdbe1616e99ad8732b78e9a98952e9bd23b08cc72e53fa68bea782c19"),
    ("verify --spec 12/4,3,3,2 --target qL --L 1 --order 30", 0, "22119b6442d5af697f66046d6c7a43cc73c35e5df7ef9a88f109e5969ab43753"),
    ("series --spec 12/4,3,3,2 --target qL --L 1 --order 30", 0, "3a4b7dfd88c390ffb4918ccf7c161fc6832361fc4809ccd2587c70429226718d"),
    ("verify --spec 12/4,3,3,2 --target qL --L 2 --order 30", 0, "f06a5bc8695865f798d049386c5571145021ee3e094d62b18a1fc5178ee00b50"),
    ("series --spec 12/4,3,3,2 --target qL --L 2 --order 30", 0, "752495b63676b74c45eebeb4eb1868cc393f75a10bd62622a59ad19acad506a5"),
    ("verify --spec 12/4,3,3,2 --target qL --L 3 --order 30", 0, "e66643a841a3dee5e6ccbc80c0ef9e8ca9522950b7a08677111815a9ccee0494"),
    ("series --spec 12/4,3,3,2 --target qL --L 3 --order 30", 0, "168aa40b78c866956eb7df71333a5033a6e9e94c63d7d168b0c1ba72f2910bce"),
    ("verify --spec 12/4,3,3,2 --target qL --L 4 --order 30", 0, "bf69928b8cbbca858efefd484b3a5e78e062cdd8aded88d0f6d01b3b0899cad6"),
    ("series --spec 12/4,3,3,2 --target qL --L 4 --order 30", 0, "d582af1dc101b05f275bc8637b88a44655fa21f8838e862e6fd2c1e99c05ecb9"),
    ("verify --spec 12/4,3,3,2 --target qL --L 5 --order 30", 0, "81642992a82ceca81d861eb996b26c264a5f3c5dd52d3efb2d4a671e3b92c25e"),
    ("series --spec 12/4,3,3,2 --target qL --L 5 --order 30", 0, "0e4cc6fa6bf5d6976e8d88583d02c5258571b0e024d84cc234cb8c62350b9e7c"),
    ("verify --spec 12/4,3,3,2 --target qL --L 6 --order 30", 0, "00b8347738e8e54b1ee5360cfd31a197b6f275e4a94727ed78ab8e41f4268646"),
    ("series --spec 12/4,3,3,2 --target qL --L 6 --order 30", 0, "7f2998460da13a052db818efe0e450121866e105ecab4f87c15987b19fba5c07"),
    ("verify --spec 12/4,3,3,2 --target qL --L 7 --order 30", 0, "1eaddbbb005c45006aeb014d1b460fc55904abc57d8e77c8d52993b283d55c4a"),
    ("series --spec 12/4,3,3,2 --target qL --L 7 --order 30", 0, "a97410c93d62a9c9f1ceb3b209ab96d1845e9551be00cf9ea231b8f803adef84"),
    ("verify --spec 12/4,3,3,2 --target qL --L 8 --order 30", 0, "93b1c663816acb579c1e7e6e67756dfd451377942d1a829917da2566f7a2fb45"),
    ("series --spec 12/4,3,3,2 --target qL --L 8 --order 30", 0, "60a29c7d14a71b21e469b5f0cabace01f4632c058c585ad865247a98e2596bf8"),
    ("verify --spec 12/4,3,3,2 --target qL --L 9 --order 30", 0, "9e91e38b4d6708012c67ca8be71f7426282e5bdeafa1d95f5e8a147d2e677c4e"),
    ("series --spec 12/4,3,3,2 --target qL --L 9 --order 30", 0, "c2c5ac448474bdd3d6492e2c22d9ef185a213c1b475fdd24dec69dbe32b63d70"),
    ("verify --spec 12/4,3,3,2 --target qL --L 10 --order 30", 0, "717383519edcd3302b6813816c242d401771e728f63092924a2ac9bb14e8b29d"),
    ("series --spec 12/4,3,3,2 --target qL --L 10 --order 30", 0, "e7584f2015ad3074e5f4ccaf661a684f087dbd951f7461139ae26b1d8e484cbd"),
    ("verify --spec 12/4,3,3,2 --target qL --L 11 --order 30", 0, "4ca9f9a26f3eb24bed4a70abae63fdb2b9742f4b6484ad244f3e74f2a364ccaf"),
    ("series --spec 12/4,3,3,2 --target qL --L 11 --order 30", 0, "3f8c31dc87cbe4703781b4887f90209a00b840864222d729163ed99b786f8c7b"),
    ("verify --spec 12/4,3,3,2 --target qL --L 12 --order 30", 0, "834d4272e78ad8153bff76f3fdaa8766e2ee9f34ffe0ab06ad391f0ec62b7000"),
    ("series --spec 12/4,3,3,2 --target qL --L 12 --order 30", 0, "a97e8c53d4ff2624287466c08a3359769a9302c58a88f67f9257083d3b2cc7ac"),
    ("verify --spec 3/1,1,1 --target q --order 40", 0, "f8db2483deb20c8777bd47be241ee1bb79a4eef020bb2e4348a6bdd495d4eb63"),
    ("series --spec 3/1,1,1 --target q --order 40", 0, "1e7b5fffbb7d1f7bf9d7979c3bb666f0cb55649c77b56c6b2b9ccd5678eea289"),
    ("verify --spec 3/1,1,1 --target qL --L 1 --order 40", 0, "863bf991a3ceae67dc3a026beb9ed320a1031ededef1408c530adb9a2f368eec"),
    ("series --spec 3/1,1,1 --target qL --L 1 --order 40", 0, "bbf37d4400ab99140f7c03c7a06eccfc624595c584bb8b6dd5e7e418a6c7b845"),
    ("verify --spec 3/1,1,1 --target qL --L 2 --order 40", 0, "9ea5ae0572f3c0e1e2537f2c66faa756d8f37f2a08a7408a73080e7efcf6ff24"),
    ("series --spec 3/1,1,1 --target qL --L 2 --order 40", 0, "eabb87aeccade01d7af417440dac8094a4a9c0cb4ffc4a391a16e96d06c3e7f2"),
    ("verify --spec 3/1,1,1 --target qL --L 3 --order 40", 0, "1d4bfdbb2571d6072a2cacb5af589c2a60a284cffc99f97a766711405441f1f6"),
    ("series --spec 3/1,1,1 --target qL --L 3 --order 40", 0, "1ebcbf494896172eed4adb90ccf72ab65cc2c44c324c32a18ef4d9c531b0bf54"),
    ("verify --spec 2/1,1 --target q --order 40", 0, "f777509db740bcfc23e0de91c5a4e1eb5cae590261ab250b4a0f153586b2c2ef"),
    ("series --spec 2/1,1 --target q --order 40", 0, "312ab0eb82da3e6f251aa91b5d987aebbf23c082047986ff6a550ef53258d57f"),
    ("verify --spec 2/1,1 --target qL --L 1 --order 40", 0, "a24673960c6053b082bceabbf122794af7e5e855b2df932c97b1382f54dd09e9"),
    ("series --spec 2/1,1 --target qL --L 1 --order 40", 0, "2252a49fd8f3551c71554de29673c3483514fe73e29453c032e0978de3848375"),
    ("verify --spec 2/1,1 --target qL --L 2 --order 40", 0, "cb6994df8d448565a82265af9d0b8b870c64fafc61f03f8e104ddc6a2296378d"),
    ("series --spec 2/1,1 --target qL --L 2 --order 40", 0, "ccf669b3b48e8342e09b83328934664affe1e91bf309c306f0107350d72d7331"),
    ("verify --spec 30,1/15,10,6 --target q --order 40", 1, "1b4e2066f90ff48c6d49fbca0a99ef3c78b97e777ea095525310d833cbcce71f"),
    ("series --spec 30,1/15,10,6 --target q --order 40", 0, "247c9ab5acf2ef6ddde30154f9bcbc8edece399e696d78ffeac7507138cfb5f8"),
    ("verify --spec 30,1/15,10,6 --target qL --L 1 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 1 --order 40", 0, "f3ce30141a1dbcebd4b3a69fbbe6d9ba92f1dc90fc7a35c9fa05b9b8db84bd6d"),
    ("verify --spec 30,1/15,10,6 --target qL --L 2 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 2 --order 40", 0, "bc8a359735ac1053f8140adf9245998fc7967b9fe19c5369f5019085010cea28"),
    ("verify --spec 30,1/15,10,6 --target qL --L 3 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 3 --order 40", 0, "aa3055ed4b7eb3b645f42f013058fcfd037e7c5555b2dd34fe7e3b583f2bab81"),
    ("verify --spec 30,1/15,10,6 --target qL --L 4 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 4 --order 40", 0, "13c7c0476516ad40e4fd474e7fbc76724db0632566ddc7255698f3055eb62c25"),
    ("verify --spec 30,1/15,10,6 --target qL --L 5 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 5 --order 40", 0, "7837c3fc5048105ea503baefe3c4d4eb89936728ca5174dcc4cd7bc1874360e8"),
    ("verify --spec 30,1/15,10,6 --target qL --L 6 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 6 --order 40", 0, "35b36ecc237988310da96ffe6348ce5b7df57259f08c91b97bec1b5fd20e05d0"),
    ("verify --spec 30,1/15,10,6 --target qL --L 7 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 7 --order 40", 0, "233709bb7d01d53e58504aebe9a6a550ce832b24d0e6953f99a8a15044c456e5"),
    ("verify --spec 30,1/15,10,6 --target qL --L 8 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 8 --order 40", 0, "7c0d73c44536094912fc3fdb5263f3e192c9069b4ed0ce49694689759bfa7dbd"),
    ("verify --spec 30,1/15,10,6 --target qL --L 9 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 9 --order 40", 0, "249edb4383630dbdf556b8b91267b3437cc3771c0777b0b4cb574fde58079192"),
    ("verify --spec 30,1/15,10,6 --target qL --L 10 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 10 --order 40", 0, "bf5feeddc429f5325f9d22aadc54ac49bc01dcbfe10cd19acf751fa983e70f8d"),
    ("verify --spec 30,1/15,10,6 --target qL --L 11 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 11 --order 40", 0, "4b15cf9eb58a086c0760cefd41cfc6a6366df86cdb930c6dacf30ab0fc8d465b"),
    ("verify --spec 30,1/15,10,6 --target qL --L 12 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 12 --order 40", 0, "c00b4f199bc6c301260e2eb7ed6c17d395fae6dde8dc8dfa8f26079d07aeabcf"),
    ("verify --spec 30,1/15,10,6 --target qL --L 13 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 13 --order 40", 0, "1e758c8d20525345aae2b08830ec3ee8fbbb2fb6a811644bb9d18173b206cc66"),
    ("verify --spec 30,1/15,10,6 --target qL --L 14 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 14 --order 40", 0, "d67f29e5efa95a2d1afb472c5c8ef0b33ce49df685f02058256bdadf7da7128a"),
    ("verify --spec 30,1/15,10,6 --target qL --L 15 --order 40", 1, "9a2721fe864599455adaf9a1e7347f5d863a5a021e4e86cd91745222023dfc8c"),
    ("series --spec 30,1/15,10,6 --target qL --L 15 --order 40", 0, "792ea507c571fdfa3b7dc7c98c358dbb34fef641f26b74a7f3b69186fa7fe56b"),
    ("verify --spec 30,1/15,10,6 --target qL --L 16 --order 40", 1, "e64d7dc9abf60726732b781361782c2f60be9085b0b7419df79d1cea6fb8277e"),
    ("series --spec 30,1/15,10,6 --target qL --L 16 --order 40", 0, "f11024ae6776082ea05423fa157be3f1ea5e68c12e933211b3c963873b9648f4"),
    ("verify --spec 30,1/15,10,6 --target qL --L 17 --order 40", 1, "af96de22244d81b2e00d71d7452df5b3eb319aff9b109b093a6a4da34f9060c4"),
    ("series --spec 30,1/15,10,6 --target qL --L 17 --order 40", 0, "57a395c250fc840c3701a1f663bd2c771c39038a9e71b4b9dc97a716f49e2224"),
    ("verify --spec 30,1/15,10,6 --target qL --L 18 --order 40", 1, "06be3bdbb083c2b2d9db56706a072686ccbbb450b90e9657ffd693fd629d79ef"),
    ("series --spec 30,1/15,10,6 --target qL --L 18 --order 40", 0, "2a2a03d1af9aa9c2697eaa3462ec0aba01291b5ae3279fe2967d914075eb23df"),
    ("verify --spec 30,1/15,10,6 --target qL --L 19 --order 40", 1, "e8b1ade21adb38f6a7c2f3311da9a98b0cdf6b759cb30df47af7175d33ab534e"),
    ("series --spec 30,1/15,10,6 --target qL --L 19 --order 40", 0, "3d38f7fa4652b53703c3192a9f519e5d063f1e4695afbb5c2b3895fe3dc59586"),
    ("verify --spec 30,1/15,10,6 --target qL --L 20 --order 40", 1, "a9530822bb40c06adac1afd11a45c1870aee86aa4fa808dac1f16fc4d39e461c"),
    ("series --spec 30,1/15,10,6 --target qL --L 20 --order 40", 0, "b22132c9f6e6ef7b4b104218f00d0db57f64b5961cdff7223ee28faadd6b421a"),
    ("verify --spec 30,1/15,10,6 --target qL --L 21 --order 40", 1, "f7dfd3549fc0a5340151359cac9dd2db8e8ae4f50c03a02c56d6a4cadf59e6ca"),
    ("series --spec 30,1/15,10,6 --target qL --L 21 --order 40", 0, "cf7e40c78fb5e7511f05e3e7d5cf3e3de4cb1f7ace23c034a627f8fd3bc2aaf4"),
    ("verify --spec 30,1/15,10,6 --target qL --L 22 --order 40", 1, "47d99b0f1b35c3368fbed85970af86bb9c36fdd6804348c6cd19f125c02a5365"),
    ("series --spec 30,1/15,10,6 --target qL --L 22 --order 40", 0, "03a640cd0a3723b6511aa5bff906d1eb6ab71c9a2436aeb411402b9832b6170b"),
    ("verify --spec 30,1/15,10,6 --target qL --L 23 --order 40", 1, "19b701658cfa6b3a4573615fe49287d90cdd184850ffd38ef9354940fbe5daaa"),
    ("series --spec 30,1/15,10,6 --target qL --L 23 --order 40", 0, "2ba4be863d9867521c17f98e91fdb1f15ab4e9339c077259d2125c48112d6f5c"),
    ("verify --spec 30,1/15,10,6 --target qL --L 24 --order 40", 1, "4f2882942df29c28daf67521b17cfc9a7b2114abad95e3910176379cc609f2f9"),
    ("series --spec 30,1/15,10,6 --target qL --L 24 --order 40", 0, "4bc68f83fd78ff93fa0273b9cdeab6a4b032c80f91598656a41c98641d95f679"),
    ("verify --spec 30,1/15,10,6 --target qL --L 25 --order 40", 1, "b99e5837611da6e32e2b58d3dff090ae8195df0ddb6b0118a086d6d3cfb6d584"),
    ("series --spec 30,1/15,10,6 --target qL --L 25 --order 40", 0, "351b6d5d868e416112b4dba8d034bae453171b983b4cce5cddbbfb267b7a99d2"),
    ("verify --spec 30,1/15,10,6 --target qL --L 26 --order 40", 1, "693facb270a45ea9891ce15c119622ac58b8cc541a231c975dd591cd3d8c8050"),
    ("series --spec 30,1/15,10,6 --target qL --L 26 --order 40", 0, "c1e9c037b99fa5e446b867c26a53971d236413dbe58318cc1f381ac0123dd607"),
    ("verify --spec 30,1/15,10,6 --target qL --L 27 --order 40", 1, "66eb48e7bc536646c8081be8aae89dfbea74ba2623199b7360ae02f2f264ac32"),
    ("series --spec 30,1/15,10,6 --target qL --L 27 --order 40", 0, "6853474ae93d8678b30a68b0c2c835f1f0de449051f342d9293b5b0ea6f6917f"),
    ("verify --spec 30,1/15,10,6 --target qL --L 28 --order 40", 1, "5bd4ffbed50aa6d7ef720f654936672125201f71688d224b8d71bf78798f8794"),
    ("series --spec 30,1/15,10,6 --target qL --L 28 --order 40", 0, "b107ee5e44296680c1166281b5f1634e29f20818709babece717251527476e9f"),
    ("verify --spec 30,1/15,10,6 --target qL --L 29 --order 40", 1, "7c5a1a7ea3b14cf85f5f5579460109455fd03e20c7c9438e8b79f5b096911419"),
    ("series --spec 30,1/15,10,6 --target qL --L 29 --order 40", 0, "88bc9d2b9a5aadc80f5932ea7031f4c8c755f8d8e12bf385746a8b8ebe1c140a"),
    ("verify --spec 30,1/15,10,6 --target qL --L 30 --order 40", 1, "3735bcb5c8d938f431a7195b45b81bb23919c9cce913f55d55fc69427ef80186"),
    ("series --spec 30,1/15,10,6 --target qL --L 30 --order 40", 0, "5c605c0c8a8d3af4746849dadc5bf91bb4c79ac253af6bb520b45f7648a0a727"),
    ("verify --spec 6/3,2,1 --target qL --L 1 --root 120 --order 40", 1, "9d5f1f514a9a57ed0dac04bb7babe10769d04e6b781823b04e18f92581ad9607"),
    ("verify --spec 6/3,2,1 --target qL --L 1 --root 7 --order 40", 1, "a40dca339712a773b56231dd1a72f4cbeefd44413c70084fccee9522d21bdf41"),
    ("verify --spec 6/3,2,1 --target q --root 61 --order 40", 1, "6d681bb7de7c523f9203af40832e3930472b5348974f6046e4c429140b16a722"),
    ("series --spec 2,2/3,1 --target q --order 20", 0, "d5d94f6bb5b1b9ac34c5d3502781bbafe9f2243878fbd8ca36f6785ae8e4cd37"),
    ("series --spec 2,2/3,1 --target qL --L 2 --order 20", 0, "564b6215a0ee8819f3138e3355a3748bf9973a0c019fbdec6c316986de92708f"),
    ("verify --spec 2,2/3,1 --target q --order 20", 1, "4a12082c03596e00918e9c61b7f2fb5c42316da0c526a9a858f8c726764d3149"),
    ("zhou --n-max 4 --order 30", 0, "34bd538457406c0f9760e438f2af9ecaf9b778469a7f810672e4be14f5699e34"),
    ("delta --spec 6/3,2,1", 0, "84ecbde9106a7c703d37caf101e5679392cf691953758086b00ad99beb312e1c"),
    ("delta --spec 12/4,3,3,2", 0, "5ba0a539938b651167bd298fd17f3b84d6e140072d02aecca4172f727e135e24"),
    ("delta --spec 3/1,1,1", 0, "c02b30e94d1e92921141e802c76291645a97c1c22120b53a3c2c070ccbad563b"),
    ("delta --spec 2/1,1", 0, "516360776ae6583f3c26418179dc4c4c1912b197fbe9985c46ea19af237c1230"),
    ("delta --spec 30,1/15,10,6", 0, "2e03d4ffecb968804878a9acb8a2c493dcda9ca3200e623c0a23f01ed336e287"),
    ("delta --spec 1806/903,602,258,42,1", 0, "f5f420e26529f67417dedd0536f5abb986de1b46690b351be34e72d17ca8081e"),
    ("delta --spec 2,2/3,1", 0, "266e6d668b05b28c193b948e72013b928ed6377cfbea2dffb5d5d42646c8b349"),
    ("delta --spec 3/1,1", 0, "f627aee1ac30dc2ba42fddba01178155bb0081ce18ed551e72ada7e886cc7cd3"),
    ("series --spec 6/3,2,1 --target F --order 40", 0, "f751ec791a79cc9854751ad7dc2687c43530ddb32805786613ad600e23747dc4"),
    ("series --spec 6/3,2,1 --target G --order 40", 0, "d4d58bd92e7a6db5568e0bfd1ba3bc46fe2142f1e0917fca20dbce28473b6edd"),
    ("series --spec 12/4,3,3,2 --target F --order 30", 0, "6cb45a7efdf6baf5c4ba61a3a7c5f5fa870dd33e7d0694d9b06d4abc0bb13df9"),
    ("series --spec 12/4,3,3,2 --target G --order 30", 0, "edf5054407b727fbfbe0157286673f49d9fa5390f1d9a6fd2bd4a2b173d09e6d"),
    ("series --spec 3/1,1,1 --target F --order 40", 0, "f90b3f9f1cee30d3b14430fdfdc11215e7d6a8a63e213f9e2955f0fe0400d2de"),
    ("series --spec 3/1,1,1 --target G --order 40", 0, "a34ae41a3f426daa2498f02dee9b2a8f24f620a36aba42bc33cb0764bdae09d7"),
    ("series --spec 2/1,1 --target F --order 40", 0, "bb0d72bc37b909038aa5083f43e737989622ea9339984a6dc33a28e588c42160"),
    ("series --spec 2/1,1 --target G --order 40", 0, "1b10f24a4fcf9f3080b7519da57934a4b5145d2964116d9307378a567390060c"),
    ("series --spec 30,1/15,10,6 --target F --order 40", 0, "dc85456ea2bc37625645b31f5aa602d6c370ff242ae7fd9731ecc83724059956"),
    ("series --spec 30,1/15,10,6 --target G --order 40", 0, "db71eaeaa0f39f4e77d3a41300c9f4afdbc0a48c41b6e9a015a4f86ee5b36bc7"),
    ("series --spec 1806/903,602,258,42,1 --target G --order 8", 0, "2dad44cb0c76b69a37a889a0b6c92623fba0b6452aadfe3858d8dff3f2be5b4e"),
    ("zhou --n-max 5 --order 10", 0, "8e398387946c9fa81913d0d30ab717c582f5fa66e3e4959ec01fe8646fc7bf7f"),
    ("padic --spec 6/3,2,1 --p 2 --p 3 --p 5 --p 7 --what phi --k-max 12", 0, "c391e908d3ffa4ef98aae101bd957c39046e213da2ef00ca0eb78df483ef1108"),
    ("padic --spec 6/3,2,1 --what s --p 2 --p 3 --p 5 --k-max 12 --s-max 2 --m-max 12", 0, "33d503411e3c02093624f9b36b119be56e3c1f5ff5b0dae986baffa37183cc27"),
    ("padic --spec 6/3,2,1 --what lemma24 --p 2 --p 3 --p 5 --m-max 20", 0, "80b36e19363fdece2e537b11912619ec1344231827997b8c8f183984f6163c0f"),
    ("padic --spec 6/3,2,1 --what phi --p 11 --L 1 --a-max 3 --k-max 8", 0, "26b20d322f8c1894c4a1eeac4484c97111d7b72b9c74f6f1b7a9d56a1542638d"),
    ("padic --spec 12/4,3,3,2 --p 2 --p 3 --p 5 --p 7 --what phi --k-max 12", 0, "a6a31bb7617b56fe9100476d807f6cfbc46a4089a00c4fff2681abd5ffc15a8f"),
    ("padic --spec 12/4,3,3,2 --what s --p 2 --p 3 --p 5 --k-max 12 --s-max 2 --m-max 12", 0, "73169d1c2d93acae3c0c74c8377e4372fbc67e063df6927280383d4848e4e03f"),
    ("padic --spec 12/4,3,3,2 --what lemma24 --p 2 --p 3 --p 5 --m-max 20", 0, "09ce0515ca8b7fffa1bd468415457142894feed4d2bf19e80f6ced831930b2ba"),
    ("padic --spec 12/4,3,3,2 --what phi --p 11 --L 1 --a-max 3 --k-max 8", 0, "b687c59fd3a9ef254b3534d3096644bef0d2e7558e7aada12043bae39248411e"),
    ("exponents --spec 6/3,2,1", 0, "241c1bace1b5256e3847c3c9b902342c257d2ceb053e262eec61141616ed05fa"),
    ("exponents --spec 12/4,3,3,2", 0, "b1673d79352597f70ca5abeb132e01397d7511f3fc1b53148c7a137cbbb592bc"),
    ("exponents --spec 3/1,1,1", 0, "e0046bce618dacb17102def591b36f0a2cf9323f51da94288b7085d5e93fec86"),
    ("exponents --spec 2/1,1", 0, "3955a088432379f4708fbf145af02577e2c5dc042d02ae666695c11881598991"),
    ("exponents --spec 30,1/15,10,6", 0, "a8fce93789a8792e0e562472b6ad1bde86996bd8205f9c345c86553e1e1243d5"),
    ("exponents --spec 4/1,1,1,1", 0, "24eeb8aec62908eeb73d6d7f051d12993858f8e2da4194e4051b846e883d7073"),
    ("exponents --spec 5/1,1,1,1,1", 0, "e18bb0e7dae1ad2b70a09e827a870081939e6f1219cc40901cf27fd51901b194"),
    ("exponents --spec 1806/903,602,258,42,1", 0, "a0ba8e1e836afd55c15759e41c5ac4c7550741567628a6df1f098a10e6b263e8"),
    ("exponents --spec 2,2/3,1", 0, "9c9bedd7700f1716198394aea5cd60d44b48f98792868d2c1d5ed0818b75029f"),
    ("padic --spec 3/1,1,1,1 --p 2 --p 3 --p 5 --what phi --k-max 12", 1, "19fb6ed6910d61541831b4c45e46c73c1df7cbb04b11e77e00c588b49cda9c04"),
    ("padic --spec 3/1,1,1,1 --p 2 --p 3 --p 5 --what s --k-max 12 --s-max 2 --m-max 8", 1, "3d48d096e4f8bd8a950078e7307b7a3c99a55566fc281f6f3185589b39e9cc16"),
    ("verify --spec 6/3,2,1 --target qL --L 1 --order 200", 0, "987f7199bf442cb56f12cdd8dad7886f3feb8e3b3798624126047655c02dc898"),
    ("verify --spec 12/4,3,3,2 --target q --root 12 --order 150", 0, "0594bbf7bf8eaacb7c5be5be628534304c0d4cea519ffe6fbf16c6e03be0eb68"),
    ("series --spec 12/4,3,3,2 --target q --order 150", 0, "1baaf9a0ff77d0ca3fd91d1e44ca1267987a469bc0b2fd1abff0d9d12377a56f"),
    ("verify --spec 1806/903,602,258,42,1 --root 1806 --order 12", 0, "e8d0e6978ccbde9b24643c39c04870c59afeb486d52abf82c459a511e18422b8"),
    ("series --spec 1,1/2 --target qL --L 2 --order 25", 0, "94caa0aca480a140b5149311476fabfbef31ba3ec6e2f49fe34b9c40c4d1b162"),
    ("zhou --n-max 2 --order 5 --format csv", 0, "584545ed5daf75c811881ef8ac3a6e97a2a1c56002c29c4c6d0248fd193ee920"),
    ("zhou --n-max 5 --order 20", 0, "a7e3e81c29ea6fbe7cf051f077a2d852d45bc811ca7f0389b01bd366d204c467"),
    ("verify --spec 12/4,3,3,2 --target qL --L 1 --root 55440 --order 40", 0, "ec58beeb8f08886228db191ce6ea7ebbc97672642a8bb47cdae5c6719b8d729f"),
    ("verify --spec 12/4,3,3,2 --target qL --L 1 --root 110880 --order 40", 1, "d5548140b8d91aa411d1d16954da88a0f34bf5de0d733ef80bed46aa65624e51"),
    ("verify --spec 12/4,3,3,2 --target qL --L 5 --root 12 --order 40", 0, "8c2390aaa75bc18c2a2d3e1dfd760528d718dee1d402a7578b9cd33183a81d0b"),
    ("verify --spec 1806/903,602,258,42,1 --root 3612 --order 12", 0, "adb7444e4f562a50a2d81c3ee7bd2209f0bad32142fb19fe0967b7c39189604e"),
    ("verify --spec 6/3,2,1 --target qL --L 1 --root 60 --order 41", 0, "20161dda9b369ccc3143888e7827b3c98355af9e14e5d6a55951f8de49278b1a"),
    ("verify --spec 3/1,1,1 --target q --root 3 --order 43", 0, "d781d7e92e461f8c8a4e8ebcfb2ad9c5371e86d2155af123a7f9c012ae323bee"),
    ("series --spec 2/1,1 --target F --order 10", 0, "59ac6d6369a18222a3b1cb007611c4fc4c7ce3e35068fb1097aa1ff2212a68b2"),
    ("series --spec 6/3,2,1 --target qL --L 2 --order 20", 0, "cc56c0d4367227b32702332d2d7595d439b2ec270fe09a0863fefd185e9e41c4"),
    ("verify --spec 6/3,2,1 --target qL --L 1 --root 60 --order 40", 0, "25a7260fcd1a30bb91d28c16130d3eb7eb54f754da77e3da5c2c005a7314ba42"),
    ("verify --spec 3/1,1,1 --root 3 --order 60", 0, "ad51fadc7dc2df6a334ff31d9ca5f1fde8338a34e2fd4a64984d119eea157e5e"),
    ("padic --spec 6/3,2,1 --p 2 --p 3 --what phi --k-max 10", 0, "f767b3519985e86fc6d64f71bc5199431254d1a5999c998a5f9ff0c89e74420e"),
    ("padic --spec 12/4,3,3,2 --p 5 --what s --s-max 2 --m-max 10", 0, "b8df57fdd0afa2540b3de15377ad7f4a91ff8a930e5258dd3bb1efcc7650327b"),
    ("padic --spec 6/3,2,1 --p 3 --what harmonic", 0, "91e34cd4409ba31a4660832a85cee54534af109a3e080b4510ec844c64e457e5"),
    ("padic --spec 6/3,2,1 --p 2 --what lemma24 --m-max 30", 0, "5c98fce65d0225b7865b5ca21c04c3e2b8a62c4395e54ac790dbdc84acce6a7e"),
    ("padic --spec 12/4,3,3,2 --what phi --p 2 --p 3 --p 5 --p 7 --k-max 25", 0, "b06f6129497bfeeafd4c602932e8b7faf7f6659b5358eed51f595512436bad9e"),
    ("padic --spec 12/4,3,3,2 --what harmonic --p 2 --p 3 --p 5 --s-max 2 --m-max 20", 0, "f2ba9a9cdb6273b31b5592b7fe48b86cafa48e54e55edc99d32b59adf71a2c04"),
    ("padic --spec 3/1,1,1,1 --what phi --p 2 --p 3 --k-max 15", 1, "ee9787b55e4771f360e3b377d9eff1246403c897c89682abd03bcef38b97ce03"),
    ("padic --spec 12/4,3,3,2 --p 7 --what harmonic --s-max 3 --m-max 40", 0, "b8782340da463b73f4d62457c2be9f8ccdeac1b132476a7b0456601f7bff15bd"),
    ("padic --spec 12/4,3,3,2 --what s --p 2 --p 3 --p 5 --k-max 30 --s-max 3 --m-max 30", 0, "0c279f7f03c2ab92ee8a463440456dbd38152311e7028d41706beaa3c0643142"),
    ("padic --spec 12/4,3,3,2 --what lemma24 --p 2 --p 3 --p 5 --m-max 60", 0, "fca82d89e3f021f99a9d11706e8ac0bf51ec90af2f2b6e658f212f3b72022a89"),
    ("padic --spec 3/1,1,1,1 --what s --p 2 --p 3 --p 5 --k-max 20 --s-max 3 --m-max 20", 1, "a60df04a2a9584db193128c17d557bfa11ac4d74af2c22f16fd2042d744ea587"),
    ("series --spec 2,2/3,1 --target G --order 20", 0, "864193fd0f1b3f2decfb434ade3c0fbff4149691dd23b4de81317d84d2a9bea9"),
    ("series --spec 1806/903,602,258,42,1 --target G --order 20", 0, "e62fecdd0043964d329009f1204967344638cfa364202f4ab6ed225ca1351214"),
)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_bytes_unchanged(command, code, digest):
    assert _run(command.split()) == (code, digest)
