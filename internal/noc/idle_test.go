package noc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nord/internal/stats"
	"nord/internal/topology"
)

// idleBET is the power model's default breakeven time in cycles
// (power.Model.BreakevenCycles): the paper's Fig 3 reports the share of
// idle periods at or below it.
const idleBET = 10

// idleDigest renders a run's idle statistics: the collector's idle and busy
// router-cycles, the idle-period distribution's count, sum, maximum and
// share at or below the breakeven time, and each router's idle cycles.
// Every field is an exact count.
func idleDigest(col *stats.NoC, reps []RouterReport) string {
	var b strings.Builder
	h := col.IdlePeriods
	fmt.Fprintf(&b, "idle=%d busy=%d periods=%d sum=%d max=%d le%d=%d routers=",
		col.IdleCycles, col.BusyCycles, h.Count(), h.Sum(), h.Max(), idleBET, h.CountLE(idleBET))
	for i, rr := range reps {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, uint64(math.Round(rr.IdleFraction*float64(col.Cycles))))
	}
	return b.String()
}

// idleGoldens pins the idle statistics of the TestRouterCountsSumToTotals
// matrix (4x4, uniform random at 0.08, seed 11, 3000 measured cycles),
// captured while a per-router tracker fed every cycle and back-filled at
// activation kept them. Any way of keeping them must reproduce these.
var idleGoldens = map[string]string{
	"mesh/No_PG/warmup500":        "idle=30238 busy=17762 periods=2616 sum=30238 max=100 le10=1581 routers=2194,1925,1956,2224,1805,1537,1671,1954,1765,1428,1591,1859,2220,1954,1913,2242",
	"mesh/No_PG/warmup0":          "idle=30473 busy=17527 periods=2577 sum=30473 max=116 le10=1528 routers=2216,1918,2001,2223,1866,1542,1722,1966,1809,1447,1628,1878,2220,1929,1912,2196",
	"mesh/Conv_PG/warmup500":      "idle=26546 busy=21454 periods=1194 sum=26546 max=120 le10=463 routers=2116,1770,1697,2145,1707,1156,1154,1668,1585,942,1073,1771,2223,1791,1694,2054",
	"mesh/Conv_PG/warmup0":        "idle=26823 busy=21177 periods=1166 sum=26823 max=154 le10=451 routers=2223,1806,1729,2167,1722,1041,1283,1617,1620,990,1175,1768,2218,1722,1709,2033",
	"mesh/Conv_PG_OPT/warmup500":  "idle=27352 busy=20648 periods=1300 sum=27352 max=119 le10=544 routers=2106,1725,1830,2147,1645,1139,1360,1881,1566,980,1168,1711,2347,1768,1775,2204",
	"mesh/Conv_PG_OPT/warmup0":    "idle=27533 busy=20467 periods=1264 sum=27533 max=133 le10=514 routers=2176,1701,1809,2214,1691,1232,1407,1836,1519,1023,1279,1734,2347,1751,1722,2092",
	"mesh/NoRD/warmup500":         "idle=16509 busy=31491 periods=1854 sum=16509 max=152 le10=1430 routers=1456,1049,1211,1327,907,715,911,1042,1003,706,764,847,1376,839,1075,1281",
	"mesh/NoRD/warmup0":           "idle=16059 busy=31941 periods=1831 sum=16059 max=152 le10=1401 routers=1425,938,1176,1240,894,687,865,1021,1059,648,819,894,1328,810,1021,1234",
	"torus/No_PG/warmup500":       "idle=32157 busy=15843 periods=2471 sum=32157 max=101 le10=1353 routers=1948,2031,2088,2048,1926,2022,2120,2068,1886,1867,2011,1950,2026,2031,2062,2073",
	"torus/No_PG/warmup0":         "idle=32314 busy=15686 periods=2443 sum=32314 max=117 le10=1337 routers=2000,1993,2103,2054,1964,2018,2147,2106,1918,1894,2050,1957,2019,2009,2063,2019",
	"torus/Conv_PG/warmup500":     "idle=27534 busy=20466 periods=1141 sum=27534 max=138 le10=404 routers=1704,1744,1820,1632,1661,1529,1926,1851,1520,1492,1649,1797,1815,1790,1815,1789",
	"torus/Conv_PG/warmup0":       "idle=27795 busy=20205 periods=1125 sum=27795 max=145 le10=395 routers=1791,1692,1823,1702,1653,1584,1992,1835,1600,1472,1674,1853,1785,1795,1805,1739",
	"torus/Conv_PG_OPT/warmup500": "idle=28236 busy=19764 periods=1257 sum=28236 max=135 le10=465 routers=1680,1709,1761,1746,1711,1718,1908,1826,1585,1460,1865,1744,1917,1808,1861,1937",
	"torus/Conv_PG_OPT/warmup0":   "idle=28586 busy=19414 periods=1236 sum=28586 max=144 le10=454 routers=1752,1657,1769,1759,1718,1736,1949,1853,1662,1531,1904,1771,1911,1837,1882,1895",
	"torus/NoRD/warmup500":        "idle=17394 busy=30606 periods=1716 sum=17394 max=116 le10=1278 routers=1177,964,982,940,875,1203,1235,881,944,1023,1019,1075,1217,1133,1430,1296",
	"torus/NoRD/warmup0":          "idle=17167 busy=30833 periods=1677 sum=17167 max=116 le10=1233 routers=1151,872,921,979,919,1106,1177,879,949,1085,1085,1135,1222,1048,1318,1321",
	"cmesh/No_PG/warmup500":       "idle=6320 busy=41680 periods=1804 sum=6320 max=25 le10=1734 routers=765,349,390,763,358,100,108,367,299,124,126,332,787,369,369,714",
	"cmesh/No_PG/warmup0":         "idle=6402 busy=41598 periods=1837 sum=6402 max=25 le10=1767 routers=748,381,431,740,379,119,121,349,302,137,134,317,786,394,385,679",
	"cmesh/Conv_PG/warmup500":     "idle=7829 busy=40171 periods=1039 sum=7829 max=52 le10=760 routers=961,492,634,994,435,54,95,321,337,130,52,391,1088,355,434,1056",
	"cmesh/Conv_PG/warmup0":       "idle=8017 busy=39983 periods=1030 sum=8017 max=47 le10=740 routers=954,498,589,1008,466,120,151,391,327,104,78,378,1097,399,473,984",
	"cmesh/Conv_PG_OPT/warmup500": "idle=7523 busy=40477 periods=1225 sum=7523 max=54 le10=978 routers=936,441,542,1015,380,41,72,377,353,78,51,338,1105,287,483,1024",
	"cmesh/Conv_PG_OPT/warmup0":   "idle=7827 busy=40173 periods=1236 sum=7827 max=45 le10=976 routers=915,469,558,1003,403,80,115,497,328,116,79,310,1137,344,512,961",
	"cmesh/NoRD/warmup500":        "idle=5993 busy=42007 periods=1642 sum=5993 max=66 le10=1578 routers=809,305,324,738,315,83,86,315,280,84,88,309,814,336,382,725",
	"cmesh/NoRD/warmup0":          "idle=5937 busy=42063 periods=1643 sum=5937 max=66 le10=1583 routers=772,324,355,724,326,118,102,310,259,111,102,304,778,333,381,638",
}

// TestIdleStatsGolden: the idle-period statistics (Section 3.2, Fig 3)
// are reproduced bit for bit on every design, topology and warm-up.
func TestIdleStatsGolden(t *testing.T) {
	got := map[string]string{}
	for _, kind := range []topology.Kind{topology.KindMesh, topology.KindTorus, topology.KindCMesh} {
		for _, d := range Designs() {
			for _, warmup := range []int{500, 0} {
				p := DefaultParams(d)
				p.Topology = kind
				col, reps, _ := goldenRun(t, p, false, 0.08, 11, warmup, 3000)
				name := fmt.Sprintf("%v/%v/warmup%d", kind, d, warmup)
				got[name] = idleDigest(col, reps)
				if want := idleGoldens[name]; got[name] != want {
					t.Errorf("%s:\n got  %q\n want %q", name, got[name], want)
				}
			}
		}
	}
	if len(got) != len(idleGoldens) {
		t.Errorf("ran %d cells, %d goldens", len(got), len(idleGoldens))
	}
}
