"""The standard normal CDF and its inverse, in numpy alone.

`ndtr` and `ndtri` port the Cephes Mathematical Library routines
(Stephen L. Moshier; ndtr.c with its erf and erfc, and ndtri.c), which
are what scipy.special runs, and return the same bits as scipy's
`ndtr` and `ndtri`. The coefficient tables below are copied from those
sources. Each branch is evaluated only on the entries that take it, and
its rational functions in Cephes order: `polevl` (a Horner recurrence
from the leading coefficient) over `p1evl` (the same with an implied
leading 1), in float64 numpy arithmetic, which rounds like C's.

Logarithms and exponentials come from the C library, as they do in
Cephes: `math.log` and `math.exp` applied per element to the entries
that need one (the tails). `np.log` and `np.exp` must not stand in for
them: their vectorized kernels differ from the C library's in the last
bit on some CPUs, and a last-bit change in a normal draw changes every
dataset drawn from it.
"""

import functools
import math

import numpy as np

# ndtri: centre, |y - 0.5| <= 0.5 - exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# ndtri tail, sqrt(-2 log y) between 2 and 8
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# ndtri tail, sqrt(-2 log y) from 8 on
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
# erf, |x| <= 1
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)
# erfc, 1 <= x < 8
_EP = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
       7.46321056442269912687E0, 4.86371970985681366614E1,
       1.96520832956077098242E2, 5.26445194995477358631E2,
       9.34528527171957607540E2, 1.02755188689515710272E3,
       5.57535335369399327526E2)
_EQ = (1.32281951154744992508E1, 8.67072140885989742329E1,
       3.54937778887819891062E2, 9.75708501743205489753E2,
       1.82390916687909736289E3, 2.24633760818710981792E3,
       1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc, x >= 8
_ER = (5.64189583547755073984E-1, 1.27536670759978104416E0,
       5.01905042251180477414E0, 6.16021097993053585195E0,
       7.40974269950448939160E0, 2.97886665372100240670E0)
_ES = (2.26052863220117276590E0, 9.39603524938001434673E0,
       1.20489539808096656605E1, 1.70814450747565897222E1,
       9.60896809063285878198E0, 3.36907645100081516050E0)

_S2PI = 2.50662827463100050242E0     # sqrt(2 pi)
_MAXLOG = 7.09782712893383996843E2   # log of the largest double
_SQRTH = 7.07106781186547524401E-1   # sqrt(1/2)
_EXP_M2 = 0.13533528323661269189     # exp(-2), where ndtri's tails begin
# entries per pass, so that a pass's temporaries stay in a core's cache
_BLOCK = 1 << 15


def _polevl(x, coefs):
    out = coefs[0] * x
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _p1evl(x, coefs):
    out = x + coefs[0]
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _libm(func, a):
    """`func` (math.log or math.exp) of each entry of the 1-d array a."""
    return np.fromiter(map(func, memoryview(a)), float, a.size)


def _elementwise(kernel):
    """`kernel`, a map from a 1-d float array to one of the same length,
    applied to any array_like in blocks of _BLOCK entries; the result has
    the input's shape, and a 0-d input gives a numpy scalar."""
    @functools.wraps(kernel)
    def apply(x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        out = np.empty_like(flat)
        for start in range(0, flat.size, _BLOCK):
            out[start:start + _BLOCK] = kernel(flat[start:start + _BLOCK])
        return out.reshape(x.shape)[()]
    return apply


@_elementwise
def ndtri(y0):
    """x with ndtr(x) == p, elementwise over an array_like p: -inf at 0,
    inf at 1, and NaN outside [0, 1] or at NaN."""
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    out = np.full(y.shape, np.nan)

    centre = y > _EXP_M2
    c = y[centre] - 0.5
    c2 = c * c
    out[centre] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _S2PI

    tail = ~centre & (y > 0.0)
    x = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    x0 = x - _libm(math.log, x) / x
    z = 1.0 / x
    x1 = np.empty_like(x)
    near = x < 8.0
    zn, zf = z[near], z[~near]
    x1[near] = zn * _polevl(zn, _P1) / _p1evl(zn, _Q1)
    x1[~near] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    return out


def _erf(x):
    """Cephes erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(x):
    """Cephes erfc for x >= 0 (NaN-free)."""
    out = np.zeros_like(x)
    small = x < 1.0
    out[small] = 1.0 - _erf(x[small])
    # exp(-x^2) underflows past MAXLOG, and erfc is 0 there
    finite = -x * x >= -_MAXLOG
    for lo, hi, num, den in ((1.0, 8.0, _EP, _EQ), (8.0, np.inf, _ER, _ES)):
        at = (x >= lo) & (x < hi) & finite
        a = x[at]
        out[at] = _libm(math.exp, -a * a) * _polevl(a, num) / _p1evl(a, den)
    return out


@_elementwise
def ndtr(x):
    """Standard normal CDF, elementwise over an array_like x: 0 at -inf,
    1 at inf and NaN at NaN."""
    a = x * _SQRTH
    z = np.abs(a)
    out = np.full(a.shape, np.nan)
    inner = z < _SQRTH
    out[inner] = 0.5 + 0.5 * _erf(a[inner])
    outer = z >= _SQRTH
    y = 0.5 * _erfc(z[outer])
    out[outer] = np.where(a[outer] > 0.0, 1.0 - y, y)
    return out
