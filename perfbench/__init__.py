"""End-to-end benchmark of the EasyBO reproduction (see README.md)."""
