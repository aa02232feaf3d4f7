"""The VDG-style intermediate representation the analyses run over."""
