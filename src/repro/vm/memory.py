"""Copy-on-write symbolic memory.

Byte-granular RAM where each byte is either a concrete ``int`` or an
8-bit :class:`~repro.solver.expr.BitVec`. Pages are shared between
forked states and copied on first write — the mechanism that makes
KLEE-style state forking cheap (paper §II: "it forks the entire program
memory in two states"; the fork is O(1), not a copy).

Words are little-endian. Reading a word whose bytes are all concrete
returns an ``int``; any symbolic byte promotes the result to an
expression.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.errors import VmError
from repro.solver import expr as E

if TYPE_CHECKING:
    from repro.isa.predecode import DecodedImage

PAGE_SIZE = 256
Value = Union[int, E.BitVec]


class SymbolicMemory:
    """Paged, copy-on-write byte store of ``size`` bytes."""

    def __init__(self, size: int):
        if size % PAGE_SIZE:
            raise VmError(f"memory size must be a multiple of {PAGE_SIZE}")
        self.size = size
        self._pages: Dict[int, List[Value]] = {}
        self._owned: set = set()
        # Predecode support: digest of the loaded firmware image (stamped
        # by load_image) and a clean flag cleared by any write below the
        # image extent. Executors fetch through their predecode table
        # only while (digest matches, code_clean) both hold.
        self.image_digest: Optional[bytes] = None
        self.code_limit = 0
        self.code_clean = True

    @classmethod
    def from_image(cls, size: int, image: "DecodedImage") -> "SymbolicMemory":
        """A memory of *size* bytes holding a predecoded firmware image,
        equal to a fresh memory after :meth:`load_image` of its bytes.
        The image's pages are shared copy-on-write (never in ``_owned``)
        and its digest and code limit are stamped, not recomputed."""
        if image.code_limit > size:
            raise VmError(f"memory access out of range: the image ends at "
                          f"0x{image.code_limit:x}, past {size} bytes")
        memory = cls(size)
        memory._pages = dict(image.pages(PAGE_SIZE))
        memory.image_digest = image.digest
        memory.code_limit = image.code_limit
        return memory

    # -- forking -----------------------------------------------------------

    def fork(self) -> "SymbolicMemory":
        """O(pages) shallow fork; both sides copy pages on next write."""
        child = SymbolicMemory.__new__(SymbolicMemory)
        child.size = self.size
        child._pages = dict(self._pages)
        child._owned = set()
        child.image_digest = self.image_digest
        child.code_limit = self.code_limit
        child.code_clean = self.code_clean
        self._owned = set()  # parent must also COW from now on
        return child

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> dict:
        # Canonical form: pages in sorted page order and no ``_owned``
        # set. ``_owned`` is a process-local COW hint — an unpickled
        # memory must copy on first write anyway (its pages may be
        # shared with a decoder-side page pool), and dropping it makes
        # ``pickle.dumps`` a pure function of memory *content*, which
        # the delta state wire (repro.parallel.statewire) relies on for
        # byte-identical full-pickle/delta round-trips.
        return {
            "size": self.size,
            "pages": dict(sorted(self._pages.items())),
            "image_digest": self.image_digest,
            "code_limit": self.code_limit,
            "code_clean": self.code_clean,
        }

    def __setstate__(self, state: dict) -> None:
        self.size = state["size"]
        self._pages = state["pages"]
        self._owned = set()
        self.image_digest = state["image_digest"]
        self.code_limit = state["code_limit"]
        self.code_clean = state["code_clean"]

    # -- byte access ----------------------------------------------------------

    def _page_for_read(self, page_no: int) -> Optional[List[Value]]:
        return self._pages.get(page_no)

    def _page_for_write(self, page_no: int) -> List[Value]:
        page = self._pages.get(page_no)
        if page is None:
            page = [0] * PAGE_SIZE
            self._pages[page_no] = page
            self._owned.add(page_no)
        elif page_no not in self._owned:
            page = list(page)
            self._pages[page_no] = page
            self._owned.add(page_no)
        return page

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > self.size:
            raise VmError(f"memory access out of range: 0x{addr:x}+{size}")

    def read_byte(self, addr: int) -> Value:
        self._check(addr, 1)
        page = self._page_for_read(addr // PAGE_SIZE)
        if page is None:
            return 0
        return page[addr % PAGE_SIZE]

    def write_byte(self, addr: int, value: Value) -> None:
        self._check(addr, 1)
        if isinstance(value, int):
            value &= 0xFF
        elif value.width != 8:
            raise VmError(f"write_byte needs an 8-bit value, got {value.width}")
        if addr < self.code_limit:
            self.code_clean = False  # self-modifying code: stop predecoding
        page = self._page_for_write(addr // PAGE_SIZE)
        page[addr % PAGE_SIZE] = value

    # -- word access -------------------------------------------------------------

    def read(self, addr: int, size: int) -> Value:
        """Little-endian read of 1, 2 or 4 bytes."""
        self._check(addr, size)
        parts = [self.read_byte(addr + i) for i in range(size)]
        if all(isinstance(p, int) for p in parts):
            value = 0
            for i, p in enumerate(parts):
                value |= p << (8 * i)  # type: ignore[operator]
            return value
        exprs = [p if isinstance(p, E.BitVec) else E.const(p, 8)
                 for p in parts]
        # concat is MSB-first; the highest-address byte is most significant.
        return E.concat(*reversed(exprs))

    def write(self, addr: int, value: Value, size: int) -> None:
        """Little-endian write of 1, 2 or 4 bytes."""
        self._check(addr, size)
        if isinstance(value, int):
            for i in range(size):
                self.write_byte(addr + i, (value >> (8 * i)) & 0xFF)
            return
        if value.width < 8 * size:
            value = E.zext(value, 8 * size)
        for i in range(size):
            self.write_byte(addr + i, E.extract(value, 8 * i + 7, 8 * i))

    # -- bulk helpers ---------------------------------------------------------------

    def load_image(self, image: Dict[int, int]) -> None:
        """Load a byte-addressed concrete image (e.g. assembled firmware).

        Stamps the memory with the image's content digest and extent so
        executors can prove their predecode table matches this memory."""
        from repro.isa.predecode import image_digest
        for addr, byte in image.items():
            self.write_byte(addr, byte)
        self.image_digest = image_digest(image)
        self.code_limit = min((max(image) + 1) if image else 0, self.size)
        self.code_clean = True

    def concrete_bytes(self, addr: int, size: int) -> bytes:
        """Read a concrete byte string; raises if any byte is symbolic."""
        out = bytearray()
        for i in range(size):
            value = self.read_byte(addr + i)
            if not isinstance(value, int):
                raise VmError(f"byte at 0x{addr + i:x} is symbolic")
            out.append(value)
        return bytes(out)

    def symbolic_byte_count(self) -> int:
        """Number of currently-symbolic bytes (diagnostics)."""
        count = 0
        for page in self._pages.values():
            count += sum(1 for v in page if not isinstance(v, int))
        return count
