#include "text/tokenizer.hh"

#include "util/string_util.hh"

namespace dsearch {

Tokenizer::Tokenizer(TokenizerOptions opts)
    : _opts(opts)
{
    for (int b = 0; b < 256; ++b) {
        const char c = static_cast<char>(b);
        if (isAsciiAlpha(c))
            _fold[b] = _opts.fold_case ? toLowerAscii(c) : c;
        else if (_opts.include_digits && isAsciiDigit(c))
            _fold[b] = c;
    }
}

char *
Tokenizer::termBuffer(std::size_t cap)
{
    if (_buf.size() <= cap)
        _buf.resize(cap + 1, '\0');
    return _buf.data();
}

std::vector<std::string>
Tokenizer::tokens(std::string_view text)
{
    std::vector<std::string> out;
    forEachToken(text,
                 [&out](std::string_view term) { out.emplace_back(term); });
    return out;
}

} // namespace dsearch
