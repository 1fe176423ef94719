//! Text assembler: parses the disassembler's GNU-`as`-style syntax
//! back into instruction words.
//!
//! Supports everything [`crate::disasm`] emits — so
//! `parse_line(disassemble(i, pc), pc) == encode(i)` for every
//! representable instruction (a property test enforces this) — plus
//! labels, `.word` data, and `!` comments for hand-written sources.

use crate::cond::{FCond, ICond};
use crate::encode::encode;
use crate::insn::{AluOp, FpOp, Instr, MemSize, Operand};
use crate::regs::{FReg, Reg};
use std::collections::HashMap;
use std::fmt;

/// Error from the text assembler, with the offending line.
#[derive(Debug, Clone, PartialEq)]
pub struct AsmParseError {
    /// Explanation.
    pub message: String,
    /// 1-based line number (0 for single-line parses).
    pub line: u32,
}

impl fmt::Display for AsmParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, AsmParseError> {
    Err(AsmParseError {
        message: message.into(),
        line: 0,
    })
}

/// Parses `%g0`-style integer register names.
fn parse_reg(token: &str) -> Result<Reg, AsmParseError> {
    let t = token.trim();
    let rest = t.strip_prefix('%').ok_or_else(|| AsmParseError {
        message: format!("expected register, found `{t}`"),
        line: 0,
    })?;
    let (bank, idx) = rest.split_at(1);
    let n: u8 = idx.parse().map_err(|_| AsmParseError {
        message: format!("bad register `{t}`"),
        line: 0,
    })?;
    if n >= 8 {
        return err(format!("register index out of range in `{t}`"));
    }
    Ok(match bank {
        "g" => Reg::g(n),
        "o" => Reg::o(n),
        "l" => Reg::l(n),
        "i" => Reg::i(n),
        _ => return err(format!("unknown register bank in `{t}`")),
    })
}

/// Parses `%f12`-style FP register names.
fn parse_freg(token: &str) -> Result<FReg, AsmParseError> {
    let t = token.trim();
    let n: u8 = t
        .strip_prefix("%f")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| AsmParseError {
            message: format!("expected FP register, found `{t}`"),
            line: 0,
        })?;
    if n >= 32 {
        return err(format!("FP register out of range in `{t}`"));
    }
    Ok(FReg::new(n))
}

/// Parses a signed immediate in decimal or `0x` hex.
fn parse_imm(token: &str) -> Result<i64, AsmParseError> {
    let t = token.trim();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let v = if let Some(hex) = t.strip_prefix("0x") {
        i64::from_str_radix(hex, 16)
    } else {
        t.parse()
    }
    .map_err(|_| AsmParseError {
        message: format!("bad immediate `{token}`"),
        line: 0,
    })?;
    Ok(if neg { -v } else { v })
}

/// Register or simm13 operand.
fn parse_operand(token: &str) -> Result<Operand, AsmParseError> {
    let t = token.trim();
    if t.starts_with('%') {
        Ok(Operand::Reg(parse_reg(t)?))
    } else {
        let v = parse_imm(t)?;
        if !Operand::fits_simm13(v as i32) || i32::try_from(v).is_err() {
            return err(format!("immediate `{t}` does not fit simm13"));
        }
        Ok(Operand::Imm(v as i32))
    }
}

/// Parses `[%rs1]`, `[%rs1 + op2]`, or `[%rs1 - imm]`.
fn parse_addr(token: &str) -> Result<(Reg, Operand), AsmParseError> {
    let t = token.trim();
    let inner = t
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| AsmParseError {
            message: format!("expected [address], found `{t}`"),
            line: 0,
        })?;
    if let Some((base, off)) = inner.split_once('+') {
        Ok((parse_reg(base)?, parse_operand(off)?))
    } else if let Some((base, off)) = inner.split_once('-') {
        let v = parse_imm(off.trim())?;
        Ok((parse_reg(base)?, Operand::Imm(-(v as i32))))
    } else {
        Ok((parse_reg(inner)?, Operand::Imm(0)))
    }
}

/// A branch/call target: an absolute address or a label.
enum Target {
    Absolute(u32),
    Label(String),
}

fn parse_target(token: &str) -> Target {
    let t = token.trim();
    if let Some(hex) = t.strip_prefix("0x") {
        if let Ok(v) = u32::from_str_radix(hex, 16) {
            return Target::Absolute(v);
        }
    }
    Target::Label(t.to_string())
}

/// A parsed line before target resolution.
enum Parsed {
    /// Resolved instruction word.
    Word(u32),
    /// Branch/call needing a target.
    NeedsTarget {
        make: fn(i32, bool, u8) -> Instr,
        cond_bits: u8,
        annul: bool,
        target: Target,
    },
}

fn make_branch(disp: i32, annul: bool, cond_bits: u8) -> Instr {
    Instr::Branch {
        cond: ICond::from_bits(cond_bits),
        annul,
        disp22: disp,
    }
}

fn make_fbranch(disp: i32, annul: bool, cond_bits: u8) -> Instr {
    Instr::FBranch {
        cond: FCond::from_bits(cond_bits),
        annul,
        disp22: disp,
    }
}

fn make_call(disp: i32, _annul: bool, _cond: u8) -> Instr {
    Instr::Call { disp30: disp }
}

const ICOND_NAMES: [&str; 16] = [
    "n", "e", "le", "l", "leu", "cs", "neg", "vs", "a", "ne", "g", "ge", "gu", "cc", "pos", "vc",
];
const FCOND_NAMES: [&str; 16] = [
    "n", "ne", "lg", "ul", "l", "ug", "g", "u", "a", "e", "ue", "ge", "uge", "le", "ule", "o",
];

fn split_args(rest: &str) -> Vec<String> {
    // split on commas that are not inside brackets
    let mut out = Vec::new();
    let mut depth = 0;
    let mut cur = String::new();
    for ch in rest.chars() {
        match ch {
            '[' => {
                depth += 1;
                cur.push(ch);
            }
            ']' => {
                depth -= 1;
                cur.push(ch);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Parses `%rs1 + op2` / `%rs1 - imm` / `%rs1` (jmpl/trap operand form).
fn parse_reg_plus(token: &str) -> Result<(Reg, Operand), AsmParseError> {
    let t = token.trim();
    if let Some((a, b)) = t.split_once('+') {
        Ok((parse_reg(a)?, parse_operand(b)?))
    } else if let Some((a, b)) = t.split_once('-') {
        let v = parse_imm(b.trim())?;
        Ok((parse_reg(a)?, Operand::Imm(-(v as i32))))
    } else {
        Ok((parse_reg(t)?, Operand::Imm(0)))
    }
}

fn parse_one(line: &str) -> Result<Parsed, AsmParseError> {
    let line = line.trim();
    let (mnemonic, rest) = match line.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (line, ""),
    };
    let args = split_args(rest);
    let ok = |i: Instr| Ok(Parsed::Word(encode(i)));

    // Fixed-form mnemonics first.
    match mnemonic {
        "nop" => return ok(Instr::NOP),
        ".word" => {
            let v = parse_imm(rest)?;
            return Ok(Parsed::Word(v as u32));
        }
        "unimp" => {
            let v = parse_imm(rest)?;
            return ok(Instr::Unimp {
                const22: v as u32 & 0x3f_ffff,
            });
        }
        "sethi" => {
            // sethi %hi(0x...), %rd
            let hi = args
                .first()
                .and_then(|a| a.strip_prefix("%hi("))
                .and_then(|a| a.strip_suffix(')'))
                .ok_or_else(|| AsmParseError {
                    message: format!("bad sethi operand in `{line}`"),
                    line: 0,
                })?;
            let value = parse_imm(hi)? as u32;
            let rd = parse_reg(args.get(1).map(String::as_str).unwrap_or(""))?;
            return ok(Instr::Sethi {
                rd,
                imm22: value >> 10,
            });
        }
        "call" => {
            return Ok(Parsed::NeedsTarget {
                make: make_call,
                cond_bits: 0,
                annul: false,
                target: parse_target(rest),
            });
        }
        "rd" => {
            // rd %y, %rd
            if args.first().map(String::as_str) != Some("%y") {
                return err(format!("only %y is readable: `{line}`"));
            }
            let rd = parse_reg(args.get(1).map(String::as_str).unwrap_or(""))?;
            return ok(Instr::RdY { rd });
        }
        "wr" => {
            // wr %rs1, op2, %y
            if args.get(2).map(String::as_str) != Some("%y") {
                return err(format!("only %y is writable: `{line}`"));
            }
            let rs1 = parse_reg(&args[0])?;
            let op2 = parse_operand(&args[1])?;
            return ok(Instr::WrY { rs1, op2 });
        }
        "save" | "restore" => {
            let (rd, rs1, op2) = if args.len() == 3 {
                (
                    parse_reg(&args[2])?,
                    parse_reg(&args[0])?,
                    parse_operand(&args[1])?,
                )
            } else {
                (
                    crate::regs::G0,
                    crate::regs::G0,
                    Operand::Reg(crate::regs::G0),
                )
            };
            return ok(if mnemonic == "save" {
                Instr::Save { rd, rs1, op2 }
            } else {
                Instr::Restore { rd, rs1, op2 }
            });
        }
        "jmpl" => {
            // jmpl %rs1 + op2, %rd
            let (rs1, op2) = parse_reg_plus(&args[0])?;
            let rd = parse_reg(&args[1])?;
            return ok(Instr::Jmpl { rd, rs1, op2 });
        }
        "retl" => {
            return ok(Instr::Jmpl {
                rd: crate::regs::G0,
                rs1: crate::regs::O7,
                op2: Operand::Imm(8),
            });
        }
        "flush" => {
            let (rs1, op2) = parse_reg_plus(rest)?;
            return ok(Instr::Flush { rs1, op2 });
        }
        _ => {}
    }

    // Traps: t<cond> %rs1 + op2
    if let Some(cond_name) = mnemonic.strip_prefix('t') {
        if let Some(bits) = ICOND_NAMES.iter().position(|&n| n == cond_name) {
            if let Ok((rs1, op2)) = parse_reg_plus(rest) {
                return ok(Instr::Ticc {
                    cond: ICond::from_bits(bits as u8),
                    rs1,
                    op2,
                });
            }
        }
    }

    // Branches: b<cond>[,a] / fb<cond>[,a]
    let (base_mnemonic, annul) = match mnemonic.strip_suffix(",a") {
        Some(b) => (b, true),
        None => (mnemonic, false),
    };
    if let Some(cond_name) = base_mnemonic.strip_prefix("fb") {
        if let Some(bits) = FCOND_NAMES.iter().position(|&n| n == cond_name) {
            return Ok(Parsed::NeedsTarget {
                make: make_fbranch,
                cond_bits: bits as u8,
                annul,
                target: parse_target(rest),
            });
        }
    }
    if let Some(cond_name) = base_mnemonic.strip_prefix('b') {
        if let Some(bits) = ICOND_NAMES.iter().position(|&n| n == cond_name) {
            return Ok(Parsed::NeedsTarget {
                make: make_branch,
                cond_bits: bits as u8,
                annul,
                target: parse_target(rest),
            });
        }
    }

    // Memory operations.
    let int_loads: &[(&str, MemSize, bool)] = &[
        ("ld", MemSize::Word, false),
        ("ldub", MemSize::Byte, false),
        ("ldsb", MemSize::Byte, true),
        ("lduh", MemSize::Half, false),
        ("ldsh", MemSize::Half, true),
        ("ldd", MemSize::Double, false),
    ];
    for &(m, size, signed) in int_loads {
        if mnemonic == m {
            let (rs1, op2) = parse_addr(&args[0])?;
            let dst = &args[1];
            if dst.starts_with("%f") {
                return ok(Instr::LoadF {
                    double: size == MemSize::Double,
                    rd: parse_freg(dst)?,
                    rs1,
                    op2,
                });
            }
            return ok(Instr::Load {
                size,
                signed,
                rd: parse_reg(dst)?,
                rs1,
                op2,
            });
        }
    }
    let int_stores: &[(&str, MemSize)] = &[
        ("st", MemSize::Word),
        ("stb", MemSize::Byte),
        ("sth", MemSize::Half),
        ("std", MemSize::Double),
    ];
    for &(m, size) in int_stores {
        if mnemonic == m {
            let src = &args[0];
            let (rs1, op2) = parse_addr(&args[1])?;
            if src.starts_with("%f") {
                return ok(Instr::StoreF {
                    double: size == MemSize::Double,
                    rd: parse_freg(src)?,
                    rs1,
                    op2,
                });
            }
            return ok(Instr::Store {
                size,
                rd: parse_reg(src)?,
                rs1,
                op2,
            });
        }
    }

    // FP compare.
    let fcmps: &[(&str, bool, bool)] = &[
        ("fcmps", false, false),
        ("fcmpd", true, false),
        ("fcmpes", false, true),
        ("fcmped", true, true),
    ];
    for &(m, double, exception) in fcmps {
        if mnemonic == m {
            return ok(Instr::FCmp {
                double,
                exception,
                rs1: parse_freg(&args[0])?,
                rs2: parse_freg(&args[1])?,
            });
        }
    }

    // FPU register operations (unary and binary).
    for op in FpOp::ALL {
        if mnemonic == op.mnemonic() {
            return if op.is_unary() {
                ok(Instr::FpOp {
                    op,
                    rd: parse_freg(&args[1])?,
                    rs1: FReg::new(0),
                    rs2: parse_freg(&args[0])?,
                })
            } else {
                ok(Instr::FpOp {
                    op,
                    rd: parse_freg(&args[2])?,
                    rs1: parse_freg(&args[0])?,
                    rs2: parse_freg(&args[1])?,
                })
            };
        }
    }

    // ALU operations by mnemonic.
    for op in AluOp::ALL {
        if mnemonic == op.mnemonic() {
            if args.len() != 3 {
                return err(format!("`{mnemonic}` needs 3 operands: `{line}`"));
            }
            return ok(Instr::Alu {
                op,
                rs1: parse_reg(&args[0])?,
                op2: parse_operand(&args[1])?,
                rd: parse_reg(&args[2])?,
            });
        }
    }

    err(format!("unknown mnemonic `{mnemonic}`"))
}

/// Parses one instruction at `pc` (for round-tripping disassembly;
/// branch targets must be absolute addresses).
pub fn parse_line(line: &str, pc: u32) -> Result<u32, AsmParseError> {
    match parse_one(line)? {
        Parsed::Word(w) => Ok(w),
        Parsed::NeedsTarget {
            make,
            cond_bits,
            annul,
            target,
        } => match target {
            Target::Absolute(addr) => {
                let disp = (addr as i64 - pc as i64) / 4;
                Ok(encode(make(disp as i32, annul, cond_bits)))
            }
            Target::Label(l) => err(format!("unresolved label `{l}` in single-line parse")),
        },
    }
}

/// Parses a multi-line program with labels (`name:`), `!` comments, and
/// `.word` data, loaded at `base`.
pub fn parse_program(source: &str, base: u32) -> Result<Vec<u32>, AsmParseError> {
    // Pass 1: label addresses.
    let mut labels: HashMap<String, u32> = HashMap::new();
    let mut word_index = 0u32;
    for (lineno, raw) in source.lines().enumerate() {
        let mut text = raw;
        if let Some(i) = text.find('!') {
            text = &text[..i];
        }
        let mut text = text.trim();
        while let Some((label, rest)) = text.split_once(':') {
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                break;
            }
            if labels
                .insert(label.to_string(), base + word_index * 4)
                .is_some()
            {
                return Err(AsmParseError {
                    message: format!("duplicate label `{label}`"),
                    line: lineno as u32 + 1,
                });
            }
            text = rest.trim();
        }
        if !text.is_empty() {
            word_index += 1;
        }
    }
    // Pass 2: encode.
    let mut words = Vec::with_capacity(word_index as usize);
    for (lineno, raw) in source.lines().enumerate() {
        let mut text = raw;
        if let Some(i) = text.find('!') {
            text = &text[..i];
        }
        let mut text = text.trim();
        while let Some((label, rest)) = text.split_once(':') {
            if label.trim().is_empty() || label.trim().contains(char::is_whitespace) {
                break;
            }
            text = rest.trim();
        }
        if text.is_empty() {
            continue;
        }
        let pc = base + words.len() as u32 * 4;
        let word = (|| -> Result<u32, AsmParseError> {
            match parse_one(text)? {
                Parsed::Word(w) => Ok(w),
                Parsed::NeedsTarget {
                    make,
                    cond_bits,
                    annul,
                    target,
                } => {
                    let addr = match target {
                        Target::Absolute(a) => a,
                        Target::Label(l) => *labels.get(&l).ok_or_else(|| AsmParseError {
                            message: format!("undefined label `{l}`"),
                            line: 0,
                        })?,
                    };
                    let disp = (addr as i64 - pc as i64) / 4;
                    Ok(encode(make(disp as i32, annul, cond_bits)))
                }
            }
        })()
        .map_err(|e| AsmParseError {
            message: e.message,
            line: lineno as u32 + 1,
        })?;
        words.push(word);
    }
    Ok(words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::disasm::disassemble;

    #[test]
    fn parses_core_forms() {
        let pc = 0x4000_0000;
        let cases = [
            "nop",
            "add %o0, 42, %o1",
            "subcc %l0, %l1, %g0",
            "sethi %hi(0x40000000), %l0",
            "ld [%o0 + 4], %l1",
            "st %l1, [%o0 - 8]",
            "ldub [%l1], %o3",
            "faddd %f0, %f2, %f4",
            "fsqrtd %f4, %f6",
            "fcmpd %f0, %f2",
            "jmpl %o7 + 8, %g0",
            "rd %y, %o1",
            "wr %g1, 0, %y",
            "ta %g0 + 5",
            "save %o6, -96, %o6",
            "unimp 0x2a",
        ];
        for text in cases {
            let word = parse_line(text, pc).unwrap_or_else(|e| panic!("{text}: {e}"));
            // The parse must round-trip through the disassembler.
            let redisasm = disassemble(&decode(word), pc);
            let reparsed =
                parse_line(&redisasm, pc).unwrap_or_else(|e| panic!("{text} -> {redisasm}: {e}"));
            assert_eq!(word, reparsed, "{text} -> {redisasm}");
        }
    }

    #[test]
    fn branch_targets_are_pc_relative() {
        let word = parse_line("bne 0x40000008", 0x4000_0000).unwrap();
        assert_eq!(
            decode(word),
            Instr::Branch {
                cond: ICond::Ne,
                annul: false,
                disp22: 2,
            }
        );
        let word = parse_line("ba,a 0x3ffffffc", 0x4000_0000).unwrap();
        assert_eq!(
            decode(word),
            Instr::Branch {
                cond: ICond::A,
                annul: true,
                disp22: -1,
            }
        );
        let word = parse_line("call 0x40000100", 0x4000_0000).unwrap();
        assert_eq!(decode(word), Instr::Call { disp30: 64 });
    }

    #[test]
    fn program_with_labels_and_comments() {
        let src = "
            ! count down from 3
            sethi %hi(0x0), %l0
            or %l0, 3, %l0
        loop:
            subcc %l0, 1, %l0
            bne loop          ! back-edge
            nop
            ta %g0 + 0
            nop
        data: .word 0xdeadbeef
        ";
        let words = parse_program(src, 0x4000_0000).unwrap();
        assert_eq!(words.len(), 8);
        assert_eq!(words[7], 0xdead_beef);
        // The bne at index 3 targets index 2.
        assert_eq!(
            decode(words[3]),
            Instr::Branch {
                cond: ICond::Ne,
                annul: false,
                disp22: -1,
            }
        );
    }

    #[test]
    fn undefined_label_and_bad_mnemonic_error() {
        assert!(parse_program("ba nowhere\nnop", 0).is_err());
        let e = parse_line("frobnicate %o0", 0).unwrap_err();
        assert!(e.message.contains("unknown mnemonic"));
    }

    #[test]
    fn fp_loads_distinguished_by_register_bank() {
        let w1 = parse_line("ldd [%o0], %l0", 0).unwrap();
        assert!(matches!(decode(w1), Instr::Load { .. }));
        let w2 = parse_line("ldd [%o0], %f0", 0).unwrap();
        assert!(matches!(decode(w2), Instr::LoadF { double: true, .. }));
        let w3 = parse_line("std %f2, [%o0]", 0).unwrap();
        assert!(matches!(decode(w3), Instr::StoreF { double: true, .. }));
    }
}
