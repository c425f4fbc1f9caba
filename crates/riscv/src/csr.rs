//! Control-and-status-register (CSR) addresses and metadata.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A 12-bit CSR address.
///
/// The CSR address space is what the Zicsr instructions (`CSRRW`, `CSRRS`, …)
/// index into. The fuzzer deliberately generates accesses to both implemented
/// and unimplemented addresses because one of the reproduced vulnerabilities
/// (V6, CWE-1281: *accessing unimplemented CSRs returns X-values*) is only
/// reachable through unimplemented addresses.
///
/// # Example
///
/// ```
/// use riscv::CsrAddr;
///
/// assert_eq!(CsrAddr::MSTATUS.value(), 0x300);
/// assert!(CsrAddr::MSTATUS.is_implemented());
/// assert!(!CsrAddr::new(0x5c0).is_implemented());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CsrAddr(u16);

impl CsrAddr {
    /// Machine status register.
    pub const MSTATUS: CsrAddr = CsrAddr(0x300);
    /// Machine ISA register.
    pub const MISA: CsrAddr = CsrAddr(0x301);
    /// Machine interrupt-enable register.
    pub const MIE: CsrAddr = CsrAddr(0x304);
    /// Machine trap-handler base address.
    pub const MTVEC: CsrAddr = CsrAddr(0x305);
    /// Machine scratch register.
    pub const MSCRATCH: CsrAddr = CsrAddr(0x340);
    /// Machine exception program counter.
    pub const MEPC: CsrAddr = CsrAddr(0x341);
    /// Machine trap cause.
    pub const MCAUSE: CsrAddr = CsrAddr(0x342);
    /// Machine bad address or instruction.
    pub const MTVAL: CsrAddr = CsrAddr(0x343);
    /// Machine interrupt-pending register.
    pub const MIP: CsrAddr = CsrAddr(0x344);
    /// Machine cycle counter.
    pub const MCYCLE: CsrAddr = CsrAddr(0xb00);
    /// Machine retired-instruction counter.
    pub const MINSTRET: CsrAddr = CsrAddr(0xb02);
    /// Machine vendor id (read-only).
    pub const MVENDORID: CsrAddr = CsrAddr(0xf11);
    /// Machine architecture id (read-only).
    pub const MARCHID: CsrAddr = CsrAddr(0xf12);
    /// Machine implementation id (read-only).
    pub const MIMPID: CsrAddr = CsrAddr(0xf13);
    /// Hardware thread id (read-only).
    pub const MHARTID: CsrAddr = CsrAddr(0xf14);
    /// User-mode cycle counter shadow.
    pub const CYCLE: CsrAddr = CsrAddr(0xc00);
    /// User-mode retired-instruction counter shadow.
    pub const INSTRET: CsrAddr = CsrAddr(0xc02);

    /// Every CSR that the golden reference model implements.
    pub const IMPLEMENTED: [CsrAddr; 17] = [
        CsrAddr::MSTATUS,
        CsrAddr::MISA,
        CsrAddr::MIE,
        CsrAddr::MTVEC,
        CsrAddr::MSCRATCH,
        CsrAddr::MEPC,
        CsrAddr::MCAUSE,
        CsrAddr::MTVAL,
        CsrAddr::MIP,
        CsrAddr::MCYCLE,
        CsrAddr::MINSTRET,
        CsrAddr::MVENDORID,
        CsrAddr::MARCHID,
        CsrAddr::MIMPID,
        CsrAddr::MHARTID,
        CsrAddr::CYCLE,
        CsrAddr::INSTRET,
    ];

    /// Creates a CSR address, masking the argument to the architectural 12 bits.
    #[inline]
    pub fn new(addr: u16) -> CsrAddr {
        CsrAddr(addr & 0xfff)
    }

    /// Returns the raw 12-bit address.
    #[inline]
    pub fn value(self) -> u16 {
        self.0
    }

    /// Returns the position of this CSR in [`CsrAddr::IMPLEMENTED`], or
    /// `None` for an unimplemented address. Dense per-CSR tables index by it.
    #[inline]
    pub const fn slot(self) -> Option<usize> {
        match SLOTS[self.0 as usize] {
            NO_SLOT => None,
            slot => Some(slot as usize),
        }
    }

    /// Returns `true` when the golden reference model implements this CSR.
    #[inline]
    pub fn is_implemented(self) -> bool {
        self.slot().is_some()
    }

    /// Returns `true` when the CSR is architecturally read-only.
    ///
    /// Per the privileged specification the top two address bits `11` mark a
    /// read-only CSR; writes to such a CSR must raise an illegal-instruction
    /// exception.
    #[inline]
    pub fn is_read_only(self) -> bool {
        (self.0 >> 10) & 0b11 == 0b11
    }

    /// Returns the minimum privilege level (0 = user, 3 = machine) encoded in
    /// bits `[9:8]` of the address.
    #[inline]
    pub fn required_privilege(self) -> u8 {
        ((self.0 >> 8) & 0b11) as u8
    }

    /// Returns the canonical lower-case name when the CSR is a known one,
    /// otherwise `None`.
    pub fn name(self) -> Option<&'static str> {
        Some(match self {
            CsrAddr::MSTATUS => "mstatus",
            CsrAddr::MISA => "misa",
            CsrAddr::MIE => "mie",
            CsrAddr::MTVEC => "mtvec",
            CsrAddr::MSCRATCH => "mscratch",
            CsrAddr::MEPC => "mepc",
            CsrAddr::MCAUSE => "mcause",
            CsrAddr::MTVAL => "mtval",
            CsrAddr::MIP => "mip",
            CsrAddr::MCYCLE => "mcycle",
            CsrAddr::MINSTRET => "minstret",
            CsrAddr::MVENDORID => "mvendorid",
            CsrAddr::MARCHID => "marchid",
            CsrAddr::MIMPID => "mimpid",
            CsrAddr::MHARTID => "mhartid",
            CsrAddr::CYCLE => "cycle",
            CsrAddr::INSTRET => "instret",
            _ => return None,
        })
    }

    /// Parses a CSR name (`"mstatus"`) or a hexadecimal/decimal address
    /// (`"0x300"`, `"768"`).
    pub fn parse(text: &str) -> Option<CsrAddr> {
        let text = text.trim();
        for csr in Self::IMPLEMENTED {
            if csr.name() == Some(text) {
                return Some(csr);
            }
        }
        let value = if let Some(hex) = text.strip_prefix("0x") {
            u16::from_str_radix(hex, 16).ok()?
        } else {
            text.parse::<u16>().ok()?
        };
        if value < 0x1000 {
            Some(CsrAddr(value))
        } else {
            None
        }
    }
}

const NO_SLOT: u8 = u8::MAX;

/// [`CsrAddr::slot`] for every 12-bit address, built from
/// [`CsrAddr::IMPLEMENTED`] so the two cannot drift apart.
static SLOTS: [u8; 0x1000] = {
    let mut slots = [NO_SLOT; 0x1000];
    let mut i = 0;
    while i < CsrAddr::IMPLEMENTED.len() {
        slots[CsrAddr::IMPLEMENTED[i].0 as usize] = i as u8;
        i += 1;
    }
    slots
};

impl fmt::Display for CsrAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name() {
            Some(name) => f.write_str(name),
            None => write!(f, "{:#05x}", self.0),
        }
    }
}

impl fmt::LowerHex for CsrAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u16> for CsrAddr {
    fn from(addr: u16) -> CsrAddr {
        CsrAddr::new(addr)
    }
}

impl From<CsrAddr> for u16 {
    fn from(addr: CsrAddr) -> u16 {
        addr.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_masks_to_12_bits() {
        assert_eq!(CsrAddr::new(0xffff).value(), 0xfff);
        assert_eq!(CsrAddr::new(0x300).value(), 0x300);
    }

    #[test]
    fn implemented_list_is_consistent() {
        for csr in CsrAddr::IMPLEMENTED {
            assert!(csr.is_implemented());
            assert!(csr.name().is_some());
        }
        assert!(!CsrAddr::new(0x5c0).is_implemented());
    }

    #[test]
    fn slot_is_the_position_in_implemented_for_every_address() {
        for (i, csr) in CsrAddr::IMPLEMENTED.into_iter().enumerate() {
            assert_eq!(csr.slot(), Some(i), "{csr}");
        }
        let mut unimplemented = 0;
        for addr in 0u16..0x1000 {
            let csr = CsrAddr::new(addr);
            if !CsrAddr::IMPLEMENTED.contains(&csr) {
                assert_eq!(csr.slot(), None, "{csr}");
                assert!(!csr.is_implemented(), "{csr}");
                unimplemented += 1;
            }
        }
        assert_eq!(unimplemented, 0x1000 - CsrAddr::IMPLEMENTED.len());
    }

    #[test]
    fn read_only_detection_follows_address_bits() {
        assert!(CsrAddr::MHARTID.is_read_only());
        assert!(CsrAddr::MVENDORID.is_read_only());
        assert!(CsrAddr::CYCLE.is_read_only());
        assert!(!CsrAddr::MSTATUS.is_read_only());
        assert!(!CsrAddr::MSCRATCH.is_read_only());
    }

    #[test]
    fn privilege_extraction() {
        assert_eq!(CsrAddr::MSTATUS.required_privilege(), 3);
        assert_eq!(CsrAddr::CYCLE.required_privilege(), 0);
    }

    #[test]
    fn parse_round_trips_names_and_numbers() {
        assert_eq!(CsrAddr::parse("mstatus"), Some(CsrAddr::MSTATUS));
        assert_eq!(CsrAddr::parse("0x300"), Some(CsrAddr::MSTATUS));
        assert_eq!(CsrAddr::parse("768"), Some(CsrAddr::MSTATUS));
        assert_eq!(CsrAddr::parse("0x1000"), None);
        assert_eq!(CsrAddr::parse("bogus"), None);
    }

    #[test]
    fn display_prefers_names() {
        assert_eq!(CsrAddr::MEPC.to_string(), "mepc");
        assert_eq!(CsrAddr::new(0x5c0).to_string(), "0x5c0");
    }

    proptest! {
        #[test]
        fn display_parse_round_trip(addr in 0u16..0x1000) {
            let csr = CsrAddr::new(addr);
            let text = csr.to_string();
            prop_assert_eq!(CsrAddr::parse(&text), Some(csr));
        }
    }
}
