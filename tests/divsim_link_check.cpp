// Checks that divsim was linked the way configure said it would be:
//
//   divsim_link_check <path-to-divsim> static-pie|dynamic
//
// A static-pie divsim has no PT_INTERP segment (no dynamic loader runs at
// its start) and is still ET_DYN, so it loads at a random address.  A
// dynamic divsim must name its loader in PT_INTERP; checking that too keeps
// this test from passing on a file it cannot read.  Exits 0 when the ELF
// matches the mode, 1 otherwise.
#include <elf.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

namespace {

struct ElfFacts {
  bool position_independent = false;  // ET_DYN
  bool has_interp = false;            // a PT_INTERP program header
};

template <typename Ehdr, typename Phdr>
bool read_program_headers(const std::vector<char>& image, ElfFacts& facts) {
  if (image.size() < sizeof(Ehdr)) {
    return false;
  }
  Ehdr header;
  std::memcpy(&header, image.data(), sizeof(header));
  if (header.e_phentsize != sizeof(Phdr) ||
      header.e_phoff + std::size_t{header.e_phnum} * sizeof(Phdr) >
          image.size()) {
    return false;
  }
  facts.position_independent = header.e_type == ET_DYN;
  for (std::size_t i = 0; i < header.e_phnum; ++i) {
    Phdr segment;
    std::memcpy(&segment, image.data() + header.e_phoff + i * sizeof(Phdr),
                sizeof(segment));
    if (segment.p_type == PT_INTERP) {
      facts.has_interp = true;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: divsim_link_check <divsim> static-pie|dynamic\n";
    return 1;
  }
  const std::string path = argv[1];
  const std::string mode = argv[2];
  if (mode != "static-pie" && mode != "dynamic") {
    std::cerr << "unknown link mode '" << mode << "'\n";
    return 1;
  }
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> image((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  if (image.size() < EI_NIDENT ||
      std::memcmp(image.data(), ELFMAG, SELFMAG) != 0) {
    std::cerr << path << ": not an ELF file\n";
    return 1;
  }
  ElfFacts facts;
  const bool parsed =
      image[EI_CLASS] == ELFCLASS64
          ? read_program_headers<Elf64_Ehdr, Elf64_Phdr>(image, facts)
          : read_program_headers<Elf32_Ehdr, Elf32_Phdr>(image, facts);
  if (!parsed) {
    std::cerr << path << ": truncated ELF program headers\n";
    return 1;
  }
  std::cout << path << ": " << (facts.has_interp ? "PT_INTERP" : "no PT_INTERP")
            << ", " << (facts.position_independent ? "ET_DYN" : "ET_EXEC")
            << "; configured link mode " << mode << "\n";
  if (mode == "static-pie") {
    if (facts.has_interp) {
      std::cerr << "FAIL: configure chose -static-pie but divsim still "
                   "names a dynamic loader\n";
      return 1;
    }
    if (!facts.position_independent) {
      std::cerr << "FAIL: a static-pie divsim must be ET_DYN\n";
      return 1;
    }
  } else if (!facts.has_interp) {
    std::cerr << "FAIL: a dynamic divsim must name its loader in PT_INTERP\n";
    return 1;
  }
  return 0;
}
