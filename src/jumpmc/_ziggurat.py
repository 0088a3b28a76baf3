"""numpy's ziggurat tables, pinned.

``ki/wi`` serve ``standard_normal``'s fast path and ``fi`` its wedge
test, ``ke/we`` serve ``standard_exponential``'s fast path and ``fe`` its
wedge test (numpy/random/src/distributions/ziggurat_constants.h).  Each
table is the 256 little-endian 8-byte entries of numpy's own table,
base64 encoded, copied from the installed static library:

    ar x <site-packages>/numpy/random/lib/libnpyrandom.a \
        src_distributions_distributions.c.o
    objcopy -O binary --only-section=.rodata \
        src_distributions_distributions.c.o rodata.bin
    objdump -t src_distributions_distributions.c.o | grep _double

``objdump`` gives each table's offset in ``.rodata`` (numpy 2.4.6:
``ki_double`` 0x4000, ``wi_double`` 0x3800, ``fi_double`` 0x3000,
``ke_double`` 0x1c00, ``we_double`` 0x1400, ``fe_double`` 0x0c00, 0x800
bytes each); the table is that slice of ``rodata.bin``.  The object has no fused multiply-add
(``objdump -d`` shows no ``vfmadd``), so numpy's array arithmetic repeats
its wedge tests bit for bit.  ``tests/test_rng.py`` checks the draws that
use the tables against numpy's generator.
"""

import base64

import numpy as np


def _table(text, dtype):
    return np.frombuffer(base64.b64decode(text), dtype=np.dtype(dtype).newbyteorder("<"))


KI_DOUBLE = _table(
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvv"
    "DgCqRPoKRxkPABjL/2HtNw8AXCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM"
    "8YYPAN4lg1emjw8A2tBNxySXDwAJ9dsHqZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5"
    "GGf7sA8AxnRTjZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9DwBXbP9gMMAPAEiiNxCCwg8A"
    "0VvieqbEDwAx7nqXosYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8AmeyPTbXO"
    "DwAwyR2/B9APAObE1k1G0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7A"
    "idYPADLoyKlu1w8A6Ah7VEjYDwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8"
    "W1z52w8AfZq5653cDwCdchiBO90PAJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8A"
    "QO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8ATLgoPFnhDwCZP7yMx+EPAKoc2+kx4g8AkRvahZji"
    "DwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/rZ7pEOQPADR31EZn5A8AXAlM07rkDwAkldKu"
    "C+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ2W825g8AeNXGdXvmDwCqER5mvuYPAPL0"
    "5VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3jfDnDwCM8FOQKOgPADoXNfte6A8A"
    "ZAiE3JPoDwC8zvBBx+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJWekPAKKak/uG6Q8AZkhxrLPp"
    "DwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLqDwAslTKrWuoPABp01aaB6g8A8Bzel6fqDwAg2fOF"
    "zOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A+oTi9HbrDwAUIOZflusPAHyd"
    "z/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwPAJbxKf1b7A8A"
    "9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8At5F/xP7s"
    "DwAohTV3E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCCqeRX"
    "g+0PAMgspAaU7Q8ABLeFK6TtDwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZ"
    "kA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A4AaQVx7uDwAkZUtzKe4PALzkChU07g8A"
    "PJu4PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGXWAtq7g8Aegc+bHHu"
    "DwCCezJYeO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahR"
    "mO4PAFxIEw6c7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6"
    "BM6o7g8AOzPoS6nuDwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A"
    "2uQiHaLuDwAkIDUun+4PAC6vJryb7g8A5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2roju"
    "DwD9PX+Ogu4PAIi4p9577g8A/zf/m3TuDwBevanDbO4PAH4AnlJk7g8AiCijRVvuDwC2V06Z"
    "Ue4PAM8GAEpH7g8AUCzhUzzuDwDYKuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqiCe4PAMxJ"
    "4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8A"
    "Nqg4HH/tDwArwLnSae0PAACuBo1T7Q8AIqTeQTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/s"
    "DwC4tw4Q1OwPALRulQi37A8AwTAStpjsDwB4qQ0KeewPAP4xD/VX7A8AYsmGZjXsDwA1s7RM"
    "EewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKFyeFv6w8Anh+t00LrDwBLLQuwE+sPAOkC"
    "Glni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATqDwA7Vi/WxekPAKRHqTuE6Q8A"
    "KEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgPAMAzgkir5w8ApWofdUzn"
    "DwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8AWPQ21IvkDwA3Hv2/"
    "+eMPAJyx7jVd4w8A/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCqcSuwgt8PAKr+"
    "fsWH3g8A/TvGCXXdDwATvynlRtwPAIICLvj42g8Adbqy4YXZDwAEz0jv5tcPAAtlva0T1g8A"
    "EvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u0scPAO0iHi8rww8AOrjAgWW9"
    "DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oaDwA=",
    np.uint64,
)

WI_DOUBLE = _table(
    "edkVeDtJzzzG9v3jC42LPLRbLDyvUJI8YTtEOLl8lTwMpy/o/AGYPLzQTC4MI5o892E4L00A"
    "nDx0cnRaL6ydPMPVTC1IMp88rbuOJzJNoDxDXQI7BfWgPHc2QZemkqE89Rp6j6InojyA2GM4"
    "LrWiPPWRV8A/PKM8L7GiwZ69ozxVm/+N7zmkPKf+PTa7saQ8dNMaYnUlpTyWzgengJWlPOp+"
    "2c8xAqY8PXyjYdJrpjxwBQCSotKmPKb4RtPaNqc8dyqzEK2YpzxD9UatRfinPHcKQ1PMVag8"
    "mnZ7nmSxqDyYz06pLgupPOoeLIJHY6k8RsU4jsm5qTwsp6TczA6qPFnNd21nYqo8MBYQbq20"
    "qjycbBNtsQWrPCl6QoeEVas8Op9Sjjakqzwygr8q1vGrPPNOWflwPqw8YTsypROKrDyLJnL+"
    "ydSsPEi3gA6fHq08EB/kKZ1nrTzDuCMAzq+tPFN28ak69608/u3Stes9rjwAb3oz6YOuPM6C"
    "+b06ya48JmLwhOcNrzyI9thU9lGvPK7Xh55tla88rC76fVPYrzzsNELgVg2wPJqPOfVALrA8"
    "/KUWnupOsDwQoHJbVm+wPAv0cZCGj7A8E2G8hH2vsDx/zEtmPc+wPGsIFkvI7rA87hWVMiAO"
    "sTy+DzEHRy2xPEGRjp8+TLE8HiDEvwhrsTw02ngap4mxPIht7lEbqLE8yyr4+GbGsTwu1OCT"
    "i+SxPJ+gQJmKArI86cbEcmUgsjwfw+l9HT6yPPtrqQy0W7I8f9MdZip5sjwb1xnHgZayPNou"
    "uGK7s7I8U7jhYtjQsjyOqcvo2e2yPNdIbg3BCrM8MLn04Y4nszyhXiZwRESzPNVSyrriYLM8"
    "algFvmp9szxksrJv3ZmzPAM9uL87trM84B1WmIbSszyDWnLevu6zPHSe4HHlCrQ8XXSmLfsm"
    "tDykMDzoAEO0PF3HynP3XrQ8NsNmnt96tDwvj0gyupa0PF1BAvaHsrQ83BGzrEnOtDwFpjgW"
    "AOq0PGJVXu+rBbU8WosK8k0htTxPZmrV5jy1PMiyG053WLU8eF9VDgB0tTwUhQ7GgY+1PFkb"
    "JCP9qrU8PXN90XLGtTzTjC974+G1PDhen8hP/bU8wx+jYLgYtjyisKLoHTS2PAsmtwSBT7Y8"
    "cpbJV+Jqtjw3MbGDQoa2PLGyUCmiobY8u0Oz6AG9tjxS0yhhYti2PFT4YTHE87Y862iL9ycP"
    "tzzGFGlRjiq3PNzucNz3Rbc8H3PlNWVhtzxJ9O/61ny3PJO9ushNmLc8CRSLPMqztzz7Itvz"
    "TM+3POfec4zW6rc8H+qGpGcGuDx2hsjaACK4PBWfic6iPbg8vfXRH05ZuDzFfnpvA3W4PC33"
    "R1/DkLg8Q8AFko6suDycDKGrZci4PCdqRFFJ5Lg8j7VzKToAuTxHgyjcOBy5PPwK7xJGOLk8"
    "iqIDeWJUuTzu1XC7jnC5PDEqLonLjLk8v5k/kxmpuTws2dWMecW5PBF0byvs4bk8StL6JnL+"
    "uTySNvk5DBu6PFvIoiG7N7o8iLsLnn9UujykqUpyWnG6PD0xoGRMjro8CPGfPlarujzO9VrN"
    "eMi6PDazi+G05bo8GqHDTwsDuzxbmJrwfCC7PAAM4KAKPrs8Az3OQbVbuzwniT+5fXm7PDz3"
    "5fFkl7s8biWF22u1uzyiwC5rk9O7PIOugZvc8bs8oBbsbEgQvDwtevDl1y68PBwNbhOMTbw8"
    "BYfsCGZsvDwXpuvgZou8PKuiNr2Pqrw8kNY7x+HJvDw34GgwXum8PG6PizIGCb08IO83ENso"
    "vTxHxjMV3ki9PCPx55YQab08pfvX9HOJvTxwbiCZCaq9PA5J/PjSyr08Ny5SldHrvTwc0kn7"
    "Bg2+PPZG6sR0Lr48iNHBmRxQvjwl/pcvAHK+PAq/KkshlL48CG/3wIG2vjw6pxB2I9m+PKns"
    "AWEI/L48IVPCijIfvzxtTbcPpEK/PGgBySBfZr88gpeJBGaKvzy/InEYu66/PIXnL9Jg0788"
    "C/YYwVn4vzx1oNNH1A7APEfJjwKoIcA8qwKpg6k0wDzH9T5O2kfAPH6zrfY7W8A8aCanI9Bu"
    "wDwXLmOPmILAPFSi6AiXlsA8xMBxdc2qwDxI1O7RPb/APDA9qjTq08A8k2URz9TowDy2n6bv"
    "//3APEFwIARuE8E8NV27myEpwTxtCcRpHT/BPDsuYEhkVcE88+6dO/lrwTxhEtJ034LBPKzr"
    "TlYamsE8ji9/d62xwTyUpnGpnMnBPDmu5Pvr4cE8Adniwp/6wTyBzASdvBPCPO7Tb3pHLcI8"
    "JJyspEVHwjzgWHbHvGHCPC5ZqPqyfMI8eA53zS6YwjxSCipTN7TCPJfbljHU0MI89XipsQ3u"
    "wjzurlbS7AvDPKOkaF57KsM8oxKuBcRJwzxAqDN60mnDPApBVpKzisM8+oiucHWswzymBBez"
    "J8/DPHX0YKrb8sM82uW5nKQXxDyUXlQVmD3EPBU6p0TOZMQ8vEOcdWKNxDwnWmudc7fEPAKJ"
    "zQ0l48Q8QazpU58QxTxCfjpSEUDFPBvkSqmxccU82Y1xi8ClxTz+0DokitzFPEwehs9pFsY8"
    "6moAe85TxjzD5Z++QJXGPDLiCY1r28Y8NHpf8CgnxzxzBglWlXnHPIzO1vQt1Mc8NPIpBQM5"
    "yDwUfKq/D6vIPJZEb5TgLsk8q1dAAe7LyTxad5R43I/KPLH9eDgfmMs8M60JgrQ7zTw=",
    np.float64,
)

KE_DOUBLE = _table(
    "xpckJxRSHAAAAAAAAAAAAH4xnNdbfRMAEDw/jvVuGACusA4yt5saAHxEGfcn0RsAGmWIDx2V"
    "HAByOVwt/hsdALIYa9Vbfh0AcCwX3TTJHQDInazfCQQeADZ41HF7Mx4Aord8F4taHgBsBG8J"
    "QnseAD6uCK8Nlx4AnvBOsfWuHgBWZbQHvcMeAM6Zh/D21R4AiFZurhTmHgDQHDbKbvQeAKTU"
    "3XZLAR8AtpanE+MMHwB69/FpYxcfAHAlRQzyIB8AdKhRGa4pHwAyVbmPsTEfAAbBV1ESOR8A"
    "TGlu6+I/HwD6iNcyM0YfAA46Hb8QTB8AIjNcTIdRHwDA7MMJoVYfAJaZCdlmWx8AjNAQguBf"
    "HwByV0TdFGQfAHiWhfYJaB8A5gIrKsVrHwD05DI9S28fADrxkHGgch8A1glNl8h1HwDAXAQb"
    "x3gfAPQ/QRKfex8Aip8HRlN+HwA4EeI75oAfAGKRrT1agx8AErlWYLGFHwBiQrKJ7YcfAPp0"
    "k3UQih8ArDk9uhuMHwBK0EXMEI4fABY+AQLxjx8A4FiDlr2RHwDYr0esd5MfANpki08glR8A"
    "kjhjeLiWHwCSiJYMQZgfAIC6RuG6mR8AAH9pvCabHwB6cRtWhZwfAALYz1nXnR8AzqFhZx2f"
    "HwDANgkUWKAfADgzOuuHoR8A/MRrb62iHwCCBs4ayaMfAKJq7l/bpB8AfAlNquSlHwCCZ+Re"
    "5aYfAMQepdzdpx8AdKjmfM6oHwDuX86Tt6kfAFi4rXCZqh8AMoJYXnSrHwCEBXSjSKwfAOif"
    "v4IWrR8AwIJXO96tHwBsHfIIoK4fAH6wGCRcrx8AEnpbwhKwHwD034EWxLAfAPrxtlBwsR8A"
    "OpaynheyHwBKqN8rurIfABhOfyFYsx8ADL7JpvGzHwDWrAzhhrQfAPyTx/MXtR8Aqv3FAKW1"
    "HwBY/jcoLrYfAAoByYizth8AmAe1PzW3HwCofdxos7cfAAi61h4uuB8A9kcDe6W4HwB0D5qV"
    "GbkfAARyuoWKuR8AJm95Yfi5HwCG4u49Y7ofABbsQS/Luh8ARJG0SDC7HwDipK6ckrsfAJ4C"
    "yDzyux8AlCnSOU+8HwDUQOGjqbwfAJ6PVIoBvR8AnHLe+1a9HwBq1osGqr0fAEA/y7f6vR8A"
    "3mRzHEm+HwBeaclAlb4fACixhjDfvh8AdGHe9ia/HwDiioKebL8fAMQEqTGwvx8AsP0PuvG/"
    "HwCIRQJBMcAfALJUW89uwB8AJhSLbarAHwCKaZkj5MAfAGSKKfkbwR8AQhl99VHBHwBKD3cf"
    "hsEfALR0nn24wR8AQuogFunBHwDeBdXuF8IfAP6DPA1Fwh8Awk+GdnDCHwAOY5AvmsIfAEaA"
    "6TzCwh8AtMbSoujCHwDsIkFlDcMfAA6c3ocwwx8Axn4LDlLDHwD4Zt/6ccMfAIYoKlGQwx8A"
    "+pd0E63DHwBIMwFEyMMfAECrzOThwx8AqE2O9/nDHwBgULh9EMQfAGj9d3glxB8Axr+16DjE"
    "HwAqERXPSsQfAOhH9CtbxB8ABEVs/2nEHwCyAVBJd8QfALj7KwmDxB8A9n9FPo3EHwAa0pnn"
    "lcQfALAw3QOdxB8AMrR5kaLEHwD8B46OpsQfAIz76/ioxB8AnuoWzqnEHwA0+kELqcQfAKAo"
    "Tq2mxB8AdC7IsKLEHwDiLeYRncQfAPQthcyVxB8AwF4m3IzEHwB6I+w7gsQfAObeluZ1xB8A"
    "gn6B1mfEHwA2wJ0FWMQfACAucG1GxB8AmMsLBzPEHwAObg3LHcQfAPa7lrEGxB8AYstIsu3D"
    "HwA8WT7E0sMfALSRBd61wx8ATGGZ9ZbDHwCSRVoAdsMfAHCTBvNSwx8AGCiywS3DHwCIeL1f"
    "BsMfAGLyy7/cwh8Anp+507DCHwDw/I+MgsIfAGTxedpRwh8AntO2rB7CHwBWZ4zx6MEfADy7"
    "N5awwR8AEM3chnXBHwC21nSuN8EfABQku/b2wB8ApE0YSLPAHwDwr4uJbMAfAGTzkqAiwB8A"
    "uHIPcdW/HwCOSCndhL8fAArGL8Uwvx8Axgx3B9m+HwDafTKAfb4fABSmSwkevh8ACEQ1erq9"
    "HwAm+LmnUr0fABogxmPmvB8A5E0sfXW8HwCqt2O//7sfAKLmP/KEux8AjNGg2QS7HwCscBo1"
    "f7ofABi2kr/zuR8A/KvULmK5HwAWShczyrgfAFRbdnYruB8AXIlbnIW3HwCUVdVA2LYfAEJp"
    "2fcith8A4DdvTGW1HwDSab+/nrQfAEbnA8jOsx8APpxTz/SyHwBSKEQyELIfAASWWj4gsR8A"
    "wuFCMCSwHwCmecQxG68fAAThZ1cErh8Aci2/nd6sHwAKBkDmqKsfACj/mfNhqh8AomZvZQip"
    "HwA8jVCzmqcfABTy0SYXph8AAOqL1HukHwCUwMWTxqIfABTzffT0oB8ACr5rMwSfHwC8+Xkr"
    "8ZwfAMSrFUS4mh8AuC94W1WYHwB4P9Crw5UfAPLxzqn9kh8AHOSa2vyPHwD4hXOeuYwfAAaW"
    "R+wqiR8AjtsE+UWFHwCaAzbD/YAfACbpOXhCfB8AzCpYowB3HwAcJBoPIHEfACo1tzSCah8A"
    "ZuKoAABjHwDE40+QZlofAHIRzk5yUB8A2m9cZsdEHwCiWYqj5TYfAAo0UDQUJh8AFAR7BD4R"
    "HwDmy1f6rvYeAB4ViKGM0x4AsC0SHqaiHgB8JovHYVkeALALrCv23R0AwOjk2U3bHAA=",
    np.uint64,
)

WE_DOUBLE = _table(
    "wV2/lOxk0TwZQV2LnVhgPCtNW0my1mo8uo1bqTWTcTxzKkrl5iJ1PIB6wvuQUHg8zLd579E4"
    "ezyYvW232Ox9PDxcxknwO4A8cPbWJNtwgTwzJtqQApiCPMpuPf6Is4M8If4LxhXFhDzDSgKd"
    "+M2FPL0rp/BAz4Y8GdAX2s3JhzxvYNNUWb6IPNI3IlWArYk8A1JdvsiXijzEo93dpX2LPIk/"
    "jNd7X4w8NnzxTaI9jTxac/F4ZhiOPKpPX88M8I48CTJoXdLEjzxYdWrtdkuQPPyAm0dIs5A8"
    "r/VJh/MZkTyg30vrjH+RPOdJPukm5JE8Lv84ZdJHkjwLaCPhnqqSPEvaJqWaDJM8AoJt4tJt"
    "kzygYiHRU86TPEhncMooLpQ8Euc1X1yNlDyTC81r+OuUPE1veCkGSpU8/b64PY6nlTzPLt3H"
    "mASWPOBoDG0tYZY8RKn6YlO9ljy7kHl5ERmXPHN5ByNudJc8coF+fG/PlzyZ1f5TGyqYPOzh"
    "Ky93hJg8KsXQUIjemDxEov29UziZPDgTrULekZk8vwP/dSzrmTxKiBS+QkSaPGHSllMlnZo8"
    "ySTyRNj1mjybl0x5X06bPImPP7O+pps8mf5Zk/n+mzyf0nCaE1ecPNtawisQr5w8++bwjvIG"
    "nTyNa9jxvV6dPFeQQmp1tp08/jF89xsOnjxEEM+DtGWePGIb4uVBvZ48n5QC4sYUnzy1/lcr"
    "RmyfPKGpBGXCw5882TyaEZ8NoDxisQ32XTmgPPh2chwfZaA8cgBLu+OQoDw3AXEDrbygPGYv"
    "eiB86KA8FawXOVIUoTy+fXBvMEChPPt/d+EXbKE8liM9qQmYoTyDUj3dBsShPOLEqZAQ8KE8"
    "BQ6x0yccojwpo8KzTUiiPJ8Y0DuDdKI8qs2LdMmgojxdO6VkIc2iPCEXAxGM+aI8EXb7fAom"
    "ozyhG4qqnVKjPPAahZpGf6M8/O/PTAasozxtM43A3dijPMQJT/TNBaQ80GxG5tcypDynbHGU"
    "/F+kPMSDyPw8jaQ8pBhrHZq6pDzqRcv0FOikPPsA2YGuFaU8+LUsxGdDpTwnbzG8QXGlPPmc"
    "Tms9n6U8NZMR1FvNpTwmz1b6nfulPC4ac+MEKqY8jJtclpFYpjzu69MbRYemPN88jX4gtqY8"
    "CKZZyyTlpjz7qVARUxSnPBwE+mGsQ6c8MNF30TFzpzwKJLF25KKnPPcXfWvF0qc8d3LOzNUC"
    "qDwq5t+6FjOoPOcIYVmJY6g8VA+kzy6UqDyUYMxICMWoPBMV/vMW9qg84XOOBFwnqTyKgjWy"
    "2FipPPS7QDmOiqk8XQPH2n28qTxR6d3cqO6pPC1Z0IoQIao8kMZWNbZTqjwP89Aym4aqPHpl"
    "gd/Auao8/6zKnSjtqjy1i27W0yCrPEIlz/jDVKs8tk8ye/qIqzwQJgfbeL2rPIX9LZ1A8qs8"
    "LeBCTlMnrDykseqCslysPPsjI9hfkqw8bKWV81zIrDyAce2Dq/6sPK3yMEFNNa08/qMe7UNs"
    "rTwKpY1TkaOtPH810ko32608m1AmtDcTrjxSpBZ8lEuuPH8j9JpPhK48eHZKFWu9rjxokVv8"
    "6PauPH+8oG7LMK880F5RmBRrrzzl4e+zxqWvPNgJ3Qrk4K881BH5ejcOsDwbORHvNCywPKMk"
    "kp5rSrA82yYRz9xosDwPrTrPiYewPBnIM/dzprA8b5QAqZzFsDy3z+9QBeWwPM7vC2avBLE8"
    "ShWSapwksTwrOm/szUSxPMEExIVFZbE8nq5v3QSGsTwgeKKnDaexPFoqeKZhyLE8cDObqgLq"
    "sTyi9PCT8guyPFDlT1IzLrI8ujtA5sZQsjym2sdhr3OyPCtTQunulrI8UdtFtIe6sjxwLZYO"
    "fN6yPGVZJlnOArM80KcqC4EnszxlyTuzlkyzPFaojPgRcrM8Q1E0nPWXszyDi416RL6zPNDe"
    "rYwB5bM8re716S8MtDz4Qr3J0jO0PCzJG4XtW7Q8MpTTmIOEtDxMoV2nmK20PCexHHsw17Q8"
    "CJW5CE8BtTyyqqxx+Cu1PFqn+AYxV7U8YUQbTP2CtTwH4Tj6Ya+1PJ69iANk3LU8eRgIlwgK"
    "tjyULnskVTi2PDL0w2BPZ7Y87kiXSv2Wtjwee5ovZce2PAcl9LGN+LY8GNJczn0qtzzDcb3i"
    "PF23PPlxa7XSkLc803YUfUfFtzwSFG7po/q3PMO+wCzxMLg8QnNoBjlouDyrW2nOhaC4PJU2"
    "O4Li2bg8RHXz0loUuTwOKvw0+0+5PNgajfHQjLk86tkkOurKuTx48Uk+Vgq6PDtM6EMlS7o8"
    "6oatwmiNujzERdiCM9G6PAq2A8CZFrs8D+qRULFduzxe2nbSkaa7PHfvS95U8bs8p+DCQRY+"
    "vDz0yMhC9Iy8PH+p8uwP3rw8xTgna40xvTzsO+xvlIe9PJ/xTq9Q4L08YAkZbvI7vjzBg/Mq"
    "r5q+PErqUGfC/L48p/eRl25ivzzlxvZD/su/PC7sYrPiHMA87471ixFWwDxOpcvNwZHAPKBI"
    "XXgx0MA8ppJDA6gRwTwqRHVneFbBPNbCs7wDn8E8fPrJoLzrwTyfkVm2Kz3CPKWqSa71k8I8"
    "8BFEiuPwwjxe98wn7lTDPGG4yMdOwcM8YhPkZpc3xDzRUUfN17nEPPZzzzzYSsU80hNz4Xru"
    "xTxyv0ttZ6rGPC/G6tZQh8c8Ge3y5p+TyDyFe0gN3OnJPPxx2lGew8s8g7t+KdnJzjw=",
    np.float64,
)

FI_DOUBLE = _table(
    "AAAAAAAA8D+H8HnJakTvPxWpbFtUt+4/d/An4BE/7j+V3gSnb9PtP/K8VwaScO0/3BmheEkU"
    "7T/rLaeoM73sP394qc5eauw/6rru2Rwb7D+C3OFO687rP1L1jzplhes/EN00gjo+6z+i6Gw/"
    "KvnqPwQlevH+teo/4clQ1Yt06j8Pr/X9qjTqP9gfZe479uk/gQYkjSK56T/BemFXRn3pP0d6"
    "G8KRQuk/T3ExvfEI6T+oCuZPVdDoPwLfukitmOg/rLw3/Oth6D9uz1YPBSzoP8viIEvt9uc/"
    "WGicd5rC5z/VsKA8A4/nP1bYcAcfXOc/Em0/9OUp5z/ueuq6UPjmP4laY55Yx+Y/KjtRXveW"
    "5j8j45IqJ2fmPxgMVZjiN+Y/ZSaAmCQJ5j9q/0pv6NrlP4lcyKwpreU/j41MJuR/5T9Gno3w"
    "E1PlP9VsZVq1JuU/Z7Yg6MT65D/ATklPP8/kP3hS3HIhpOQ/ElDfX2h55D95NklKEU/kP+Nf"
    "NYoZJeQ/gltYmX774z+jMa8QPtLjPw7NYqZVqeM/1QDaK8OA4z/pUPWLhFjjPzU6cMmXMOM/"
    "7zhk/foI4z/uO+pVrOHiP0qV1xSquuI/Fc2TjvKT4j/tBAUphG3iP4TbkFpdR+I/8vcvqXwh"
    "4j8glpKp4PvhP2mZVP6H1uE/EdE/V3Gx4T9QPJtwm4zhP9o5hhIFaOE/nKleEK1D4T84HzFI"
    "kh/hPxNZMqKz++A/oEJBEBDY4D+u2XCNprTgP4FdmR12keA/NjzwzH1u4D8uP6avvEvgPyqC"
    "i+ExKeA/xMq4hdwG4D+hvXuMd8nfP8oAqaedhd8/83ovyylC3z+Vj35xGv/eP1QfvSBuvN4/"
    "xcNOaiN63j+Fm1/qODjePwk6dket9t0/sVYLMn+13T8z3iZkrXTdP4AQAqE2NN0/bVuutBn0"
    "3D9IqMBzVbTcP8fXALvodNw/uCwdb9I13D8XamF8EffbP5FtcdakuNs/GxMHeIt62z/KMbNi"
    "xDzbP1KFoZ5O/9o/nlpfOinC2j+A2KRKU4XaP03AIOrLSNo/PoRGOZIM2j/fkx5epdDZP8bA"
    "GIQEldk/k5/g265Z2T8XyzObox7ZPxXxufzh49g/iJHeP2mp2D+2WqyoOG/YP9kNqn9PNdg/"
    "Edm4Ea371z+wFPSvUMLXP+tSkq85idc/7bHHaWdQ1z9MYak72RfXP6pMEoaO39Y/Id6IrYan"
    "1j/iyyUawW/WPxXlezc9ONY/yNKAdPoA1j9EwnZD+MnVP77u1hk2k9U/AAE9cLNc1T/tO1PC"
    "bybVP5Jtv45q8NQ/opwQV6O61D/Uaq2fGYXUP/4kw+/MT9Q/GXo10bwa1D/b0o7Q6OXTP65D"
    "8XxQsdM/eRMIaPN80z+e0fkl0UjTPy/2Wk3pFNM/Zgchdzvh0j/dP5Y+x63SPx6xTUGMetI/"
    "id4XH4pH0j+ezPd5wBTSPxaBGPYu4tE/UPDCOdWv0T/oVFTtsn3RP2fuNLvHS9E/IyTPTxMa"
    "0T/ECYdZlejQP9pCsohNt9A/NkOQjzuG0D/Z6UIiX1XQP350x/a3JNA/xZPfiYvozz81MriM"
    "EIjPP9KY6Wz+J88/RJzJpFTIzj/dPCiyEmnOP4RxRRY4Cs4/CpDHVcSrzT9PUbL4tk3NP8xv"
    "XooP8Mw/U99xmc2SzD9Hndi38DXMP6EYvnp42cs/qjGHemR9yz860cxStCHLPwcYV6Jnxso/"
    "fiYZC35ryj89fi0y9xDKP1r+0r/Stsk/J3xqXxBdyT9p+nS/rwPJP1uBkpGwqsg/OJqBihJS"
    "yD91cR9i1fnHPyOjaNP4occ/prV6nHxKxz8WR5Z+YPPGP1zyIT6knMY/nPGtokdGxj/5g/h2"
    "SvDFP2wd84ismsU/NWjIqW1FxT/BH+OtjfDEPy3O9WwMnMQ/1XUDwulHxD+uMWmLJfTDP+7X"
    "6Kq/oMM/iKu0BbhNwz9lKnyEDvvCPxoHehPDqMI/t16DotVWwj80PBglRgXCP0J9dZIUtME/"
    "Yy2o5UBjwT+5bqIdyxLBP7oJUj2zwsA/hb+4S/lywD8qfQZUnSPAPywia8s+qb8/HA5SKf8L"
    "vz9LpZrye2++P4/odmG1070/5ZG9uas4vT8KdDtJX568PxUQC2jQBLw/M+LyeP9ruz8z9srp"
    "7NO6P4Zi6jOZPLo/GVud3ASmuT+roKR1MBC5P1Iov50ce7g/1u8+Acrmtz92EapaOVO3P0xK"
    "aXNrwLY/GE2FJGEutj+kZnRXG521P64r+gabDLU/EyIbQOF8tD+GmiYj7+2zP3A+2eTFX7M/"
    "ETGbz2bSsj+RDd1E00WyP32Jl74MurE/nRfy0BQvsT8llhUs7aSwP5fkMJ6XG7A/NW5sKywm"
    "rz+BUbJH1RauP2Lxrf4uCa0/LCooDz79qz9wXziQB/OqP2NVKfmQ6qk/q7VoKuDjqD8eJ693"
    "+96nP2TQmLPp26Y/1K3yPLLapT9dJxEOXdukP8vumM7y3aM/l/Q96Hzioj+8ah+fBemhPxGA"
    "li6Y8aA/xKUY14H4nz91jILbGhKePxoJzYMZMJw/+OsiTp9Smj8KwQC20XmYP4K/C/TapZY/"
    "ZLD78urWlD8TXquNOA2TPxIwYDQDSZE/Sd1yTyoVjz+sj08njaSLP3ikjQ0EQYg/4M8aQpbr"
    "hD+SL5UpkqWBPzdo7Phg4Xw/XbgM2aiedj/9sbADH4pwP2ewwUOfX2U/D/e5tgWmVD8=",
    np.float64,
)

FE_DOUBLE = _table(
    "AAAAAAAA8D83EYjlRQXuP/H/gVCm0Ow/J3vrewDl6z8qf+YODyHrP+f6YqW6duo/m21VFZfe"
    "6T85qlXEMVTpPy/S03aj1Og/uMUGeOhd6D8mMSQtiu7nP37UCZtuhec/Y0upW7sh5z/GGIRJ"
    "w8LmPwZcT236Z+Y/Zq+nwe0Q5j91rExpPb3lP3OH2oKYbOU/mol4Fboe5T+v+FHBZtPkP2ng"
    "jvtqiuQ/JeGor5lD5D+Ai7Ery/7jPxTR4UTcu+M/2d0Ip6164z8YYw5FIzvjP17aReMj/eI/"
    "JE8ftpjA4j+9MhERbYXiP6NQjCKOS+I/yD6BuuoS4j+Je4cZc9vhPyU7HscYpeE/7m/Obc5v"
    "4T+cFjO8hzvhP43DHEo5COE/Kx4rgdjV4D8q0FSIW6TgP3077jG5c+A/SGXS6+hD4D8k82Cx"
    "4hTgP3ZFIf49zd8/+sW/ji1y3z9NQuvRhhjfP5Cdlks9wN4/UdN9NkVp3j/8N+F1kxPePwwh"
    "p4gdv90/eu25fdlr3T8LGn7pvRndP5LgQNzByNw/YPuD2dx43D+DpQ7QBircP7XurhI43Ns/"
    "iAuZUWmP2z9vgFSUk0PbP1/vKDSw+No/5fb91riu2j9AAaNqp2XaP/QhdSB2Hdo/kjdaaR/W"
    "2T+oewnynY/ZPxCBmp/sSdk/BF1UjAYF2T85XbcE58DYP4w/vISJfdg/OGFEtek62D9ZzrZp"
    "A/nXPx6Axp3St9c/43Jec1N31z/qjbAwgjfXP52eZD5b+NY/nOnkJdu51j+fDcaP/nvWP+Qn"
    "SELCPtY/dljvHyMC1j9s7jEmHsbVP++pOmywitU/56O9IddP1T/1id6NjxXVPx35Jg7X29Q/"
    "09qLFaui1D/vvoArCWrUP+JBGOvuMdQ/TqEwAlr60z+FsqswSMPTP+99sUe3jNM/3dD8KKVW"
    "0z81JDHGDyHTP3BCOSD169I/YiKuRlO30j8pdkVXKIPSP/12R31yT9I//34L8S8c0j/bCXv3"
    "XunRP1q8muH9ttE/ghkZDAuF0T/vkeLehFPRP7qfusxpItE/bKbZUrjx0D8zU4/4bsHQPxM+"
    "6U6MkdA/0pBd8A5i0D8sfHmA9TLQP2pHk6s+BNA/VJP/TNKrzz9+PpZc50/PP5vg6A+69M4/"
    "8kBZAEiazj+ngy/WjkDOPzlPIkiM580/uO7jGj6PzT/9MbQgojfNP5/Q9ji24Mw/AhjOT3iK"
    "zD/ur7ld5jTMPzVEOWf+38s/peRyfL6Lyz8+79y4JDjLPwtb60Iv5co/STzAS9ySyj+8XN8O"
    "KkHKPxLF5NEW8Mk/IxY+5KCfyT+hkuaexk/JP3m7JWSGAMk/1WJQn96xyD/5GozEzWPIP+bn"
    "lFBSFsg/rhuFyGrJxz/+Rp+5FX3HPzkoGrlRMcc/6oTuYx3mxj8o2qZed5vGP6zRMFVeUcY/"
    "MWqw+tAHxj+2wlQJzr7FP/V4LkJUdsU/SYwHbWIuxT/6tjxY9+bEP5YwmNgRoMQ/xswtybBZ"
    "xD+aajgL0xPEPwWp+IV3zsM/ydWUJp2Jwz+vDPrfQkXDP259vqpnAcM/NM8EhQq+wj9AmWBy"
    "KnvCP3jou3vGOMI/Zco9r932wT9m1jEgb7XBP3iu8OZ5dME/L3HJIP0zwT8gF+zv9/PAPy+2"
    "VHtptMA/vqW37lB1wD8Ef256rTbAP43qy6b88L8/FAQZZoV1vz88w4Ou8/q+P8y5jgRGgb4/"
    "+7ph9XoIvj+Yk60WkZC9P9dNkQaHGb0/V/2Aa1ujvD+vEC70DC68P48mcVeaubs/SGU1VAJG"
    "uz9lVGWxQ9O6P7c42T1dYbo/KPRG0E3wuT9wazNHFIC5P7l05YivELk/O1Nagx6iuD+6xDss"
    "YDS4P/Om14Bzx7c/HjwZhldbtz+2FoRIC/C2PyC2MNyNhbY/997KXN4btj8+u5Ht+7K1PzbQ"
    "WbnlSrU/KdmQ8prjtD9cmEPTGn20Pw6xJZ1kF7Q/np+bmXeysz8Y58YZU06zP9GNlHb26rI/"
    "cAXOEGGIsj+MnSxRkiayP0Cjb6iJxbE/klN1j0ZlsT9QylaHyAWxPzsbhxkPp7A/F8j11xlJ"
    "sD92lmm60NevPzToRJn0Hq8/5bIupZ5nrj8QWDFJzrGtP0p5HgOD/aw/6SEHZLxKrD+F2b4Q"
    "epmrP4SAasK76ao/OPEbR4E7qj9MfHuCyo6pP213gG6X46g/azk6HOg5qD+eCKu0vJGnP1Kv"
    "tnkV66Y/QaAmx/JFpj/K0sUTVaKlP+vFlvI8AKU/GWsmFKtfpD//GP9HoMCjP64UP34dI6M/"
    "DMBWySOHoj/UEvNftOyhP6GzGZ/QU6E/UdZ8DHq8oD/u+g1ZsiagP5CYr8f2JJ8/aHRReq7/"
    "nT8MGzNUkN2cP3BY+lChvps/m06S5uaimj9IKhMPZ4qZP2eZ7FModZg/lvyH2jFjlz93QKJy"
    "i1SWP1ECq6Y9SZU/vvCHzlFBlD+EXTEl0jyTPzI6ueHJO5I/X19yVEU+kT/wAh4JUkSQP87H"
    "id79m44/VyduFLm2jD8tyUJV+tiKP72nj2jqAok/9XSq5rY0hz/LFuQLk26FP2JvUcG4sIM/"
    "cXaz7Wn7gT/5118p8k6AP8VddPpRV30/NkiX1Okjej8gNuw3nwR3P/0i486X+nM/Q0BXaT0H"
    "cT8RS82Bs1hsP//+ofOI2GY/JKPhqGuUYT8lPgxUtStZP7n8jfcKsk8/SwufMhzDPT8=",
    np.float64,
)
